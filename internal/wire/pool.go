package wire

import (
	"sync"
	"sync/atomic"
)

// BufferPool recycles packet buffers shared across goroutines. No datapath
// role draws from it any more — a relay's stash entries, cycled by one
// owner, come from a StashLog, and the receive rings are allocated once
// per bind — but bench/'s per-layer replay still does, through the
// package-level GetBuffer and ReleaseBuffer. It is built from size-classed sync.Pools (so idle buffers are released to the GC
// under memory pressure, like any sync.Pool) with a node-recycling layer on
// top: Release does not allocate a slice header, which a bare
// sync.Pool.Put(&b) would.
//
// Ownership discipline (see README "Performance"):
//
//   - Get(n) transfers ownership of the returned buffer to the caller.
//   - Exactly one owner at a time. Passing the buffer to a function that
//     retains it transfers ownership; the new owner must Release it.
//   - Release(b) returns the buffer; the caller must not touch b afterwards.
//   - Releasing is optional for correctness (an unreleased buffer is simply
//     garbage-collected) but required for the zero-allocation steady state.
//   - Never Release a buffer twice, and never Release a buffer that aliases
//     memory still in use (e.g. a sub-slice handed to another goroutine).
//
// SetChecked(true) turns on double-release and foreign-release detection for
// tests; with it off, Get and Release pay one atomic load and take no lock.
type BufferPool struct {
	classes [len(classSizes)]sync.Pool
	nodes   sync.Pool // *pbuf nodes with b == nil, recycled between classes

	// Observability counters (see Stats). Atomic: Get runs concurrently
	// on the live path.
	gets     atomic.Uint64
	hits     atomic.Uint64
	oversize atomic.Uint64

	checked atomic.Bool   // written under mu; the fast path only loads it
	mu      sync.Mutex    // guards out
	out     map[*byte]int // first-byte pointer -> class, outstanding buffers
}

// PoolStats is a point-in-time snapshot of a pool's traffic counters,
// a BufferPool's or a StashLog's. Misses (Gets − Hits − Oversize) are Gets
// that had to allocate a fresh buffer; a steady-state datapath should show
// Hits ≈ Gets.
type PoolStats struct {
	Gets uint64 // buffers requested
	Hits uint64 // requests satisfied by a recycled buffer or the log's arena
	// Oversize counts Get sizes beyond the largest class (a StashLog's: a
	// segment); those buffers are plain allocations and are dropped on
	// Release.
	Oversize uint64
}

// Misses returns the number of Gets that allocated (including oversize).
func (s PoolStats) Misses() uint64 { return s.Gets - s.Hits }

// Stats returns the pool's cumulative traffic counters.
func (p *BufferPool) Stats() PoolStats {
	return PoolStats{
		Gets:     p.gets.Load(),
		Hits:     p.hits.Load(),
		Oversize: p.oversize.Load(),
	}
}

// classSizes are the pooled buffer capacities. 256 covers control packets
// and NAKs, 2 KiB the pilot's h5lite fragments, 9216 a jumbo frame, 64 KiB
// the largest UDP datagram the live path reads.
var classSizes = [...]int{256, 1 << 10, 2 << 10, 4 << 10, 9216, 16 << 10, 64 << 10}

// pbuf is the pooled node: a box for a byte slice so that both Get and
// Release move only pointers through the sync.Pools.
type pbuf struct{ b []byte }

// NewBufferPool returns an empty pool.
func NewBufferPool() *BufferPool { return &BufferPool{} }

// SetChecked enables (or disables) release-discipline checking: Release
// panics on a buffer released twice or never obtained from this pool.
// Checking takes a lock per Get/Release; enable it only in tests.
func (p *BufferPool) SetChecked(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checked.Store(on)
	if on && p.out == nil {
		p.out = make(map[*byte]int)
	}
}

// classFor returns the index of the smallest class with capacity ≥ n, or -1
// if n exceeds the largest class.
func classFor(n int) int {
	for i, sz := range classSizes {
		if n <= sz {
			return i
		}
	}
	return -1
}

// Get returns a buffer of length n with capacity of n's size class. The
// contents are unspecified (buffers are recycled, not zeroed); callers that
// append should start from b[:0].
func (p *BufferPool) Get(n int) []byte {
	p.gets.Add(1)
	ci := classFor(n)
	if ci < 0 {
		p.oversize.Add(1)
		return make([]byte, n)
	}
	var b []byte
	if node, _ := p.classes[ci].Get().(*pbuf); node != nil {
		b = node.b
		node.b = nil
		p.nodes.Put(node)
		p.hits.Add(1)
	} else {
		b = make([]byte, classSizes[ci])
	}
	b = b[:n]
	if p.checked.Load() {
		p.track(b, ci)
	}
	return b
}

// Release returns b to its size class. Buffers whose capacity matches no
// class (including those from an oversized Get) are dropped for the GC.
func (p *BufferPool) Release(b []byte) {
	if cap(b) == 0 {
		return
	}
	ci := releaseClassFor(cap(b))
	if p.checked.Load() {
		p.untrack(b, ci)
	}
	if ci < 0 {
		return
	}
	node, _ := p.nodes.Get().(*pbuf)
	if node == nil {
		node = &pbuf{}
	}
	node.b = b[:cap(b)]
	p.classes[ci].Put(node)
}

// releaseClassFor maps a capacity back to its class by exact match, so a
// sub-slice of a pooled buffer re-enters the right class and foreign
// buffers (whatever their capacity) are rejected.
func releaseClassFor(c int) int {
	for i, sz := range classSizes {
		if c == sz {
			return i
		}
	}
	return -1
}

func (p *BufferPool) track(b []byte, ci int) {
	key := &b[:1][0]
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.checked.Load() {
		return
	}
	p.out[key] = ci
}

func (p *BufferPool) untrack(b []byte, ci int) {
	key := &b[:1][0]
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.checked.Load() {
		return
	}
	if _, ok := p.out[key]; !ok {
		panic("wire: BufferPool.Release of a buffer not obtained from this pool (or released twice)")
	}
	delete(p.out, key)
}

// Outstanding returns the number of checked-mode buffers obtained and not
// yet released. It is 0 unless SetChecked(true) was called before the Gets.
func (p *BufferPool) Outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.out)
}

// defaultPool backs the package-level helpers. No datapath role draws from
// it: the receive rings are plain allocations and the relay carves its
// stash from its own StashLog.
var defaultPool = NewBufferPool()

// GetBuffer returns a length-n buffer from the shared pool.
func GetBuffer(n int) []byte { return defaultPool.Get(n) }

// ReleaseBuffer returns a GetBuffer buffer to the shared pool.
func ReleaseBuffer(b []byte) { defaultPool.Release(b) }

// DefaultPoolStats returns the shared pool's cumulative traffic counters.
// No role publishes them; the wire.pool.* metrics are the live relay's
// stash log.
func DefaultPoolStats() PoolStats { return defaultPool.Stats() }
