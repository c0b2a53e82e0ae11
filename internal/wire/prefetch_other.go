//go:build !amd64

package wire

// prefetchW is the amd64 write prefetch's stand-in on every other
// architecture: it does nothing.
func prefetchW([]byte) {}
