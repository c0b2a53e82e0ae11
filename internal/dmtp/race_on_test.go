//go:build race

package dmtp

// raceEnabled reports that this binary was built with the race detector,
// under which sync.Pool deliberately drops Puts — so gates that depend on
// the pooled zero-alloc steady state must skip.
const raceEnabled = true
