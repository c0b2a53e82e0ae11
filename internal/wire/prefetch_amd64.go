package wire

// prefetchW asks the CPU to bring every 64-B line of b, which starts on a
// line as stash entries do, into its cache in a writable state
// (PREFETCHW), so a later store into b does not wait for the
// read-for-ownership. It is a hint: it reads and writes nothing, cannot
// fault, and runs as a NOP on a CPU that predates the instruction.
//
//go:noescape
func prefetchW(b []byte)
