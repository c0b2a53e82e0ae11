package wire

import "unsafe"

// StashLog is the allocator of a relay's retransmission stash, for one
// owner that serializes every call: no lock, no atomic. Entries are carved
// back to back, in allocation order, from fixed segments of one arena,
// each 64-B aligned and with cap == len, so that no entry can grow into
// the next. A segment is written again only once every entry carved from
// it has been Put back, and empty segments are reused most recently
// emptied first. A stash releases oldest first (a trim takes an
// experiment's oldest entries, an eviction the oldest held), so segments
// drain in roughly the order they filled: consecutive upgrades write to
// consecutive cache lines, and the memory written stays the live window,
// however large the arena.
//
// Once the arena outgrows the cache, the bytes an entry is carved from are
// cold, and the first stores into them wait on read-for-ownership misses:
// a relay's copy of a packet into its entry would stall the store after
// it. So Get, having carved an entry, write-prefetches (PREFETCHW on
// amd64, nothing elsewhere) the bytes the next Get of the same size will
// be given, one entry ahead: those misses then overlap whatever the
// caller does between two Gets. A prefetch is only a hint: a Put or a
// Get of another size in between can waste it, never break an entry.
//
// An entry larger than a segment, or one asked for while the current
// segment is full and none is empty, is a plain heap allocation, counted
// as a miss; Put leaves such a buffer, and any other not carved here, to
// the GC. The ownership rules are BufferPool's.
type StashLog struct {
	arena    []byte
	live     []int32 // per segment, the entries carved and not yet Put
	empty    []int32 // the empty segments, the most recently emptied on top
	cur, off int     // the segment being written, and its next free byte
	gets     uint64
	hits     uint64
	oversize uint64
}

// The arena's segment size, and the alignment of every entry in it.
const (
	stashSegment = 256 << 10
	stashAlign   = 64
)

// NewStashLog returns a log whose arena holds capacity bytes plus an
// eighth for alignment and partly drained segments, in whole segments.
func NewStashLog(capacity int) *StashLog {
	n := max(1, (capacity+capacity/8+stashSegment-1)/stashSegment)
	l := &StashLog{arena: make([]byte, n*stashSegment), live: make([]int32, n), empty: make([]int32, 0, n)}
	for s := n - 1; s > 0; s-- {
		l.empty = append(l.empty, int32(s)) // segment 0 is written first, then 1, 2, …
	}
	return l
}

// Get returns a buffer of length and capacity n: the next n bytes of the
// current segment, else the start of the most recently emptied one — or
// the current one itself, if its entries have all come back meanwhile.
// It then write-prefetches where the next Get of the same size will land.
func (l *StashLog) Get(n int) []byte {
	l.gets++
	sz := (n + stashAlign - 1) &^ (stashAlign - 1)
	if sz > stashSegment {
		l.oversize++
		return make([]byte, n)
	}
	if n == 0 {
		// A zero-capacity slice of the arena would point at its start, not
		// into a segment of its own.
		return make([]byte, 0)
	}
	at := l.next(sz)
	if at < 0 {
		return make([]byte, n)
	}
	if s := at / stashSegment; s != l.cur {
		l.cur, l.empty = s, l.empty[:len(l.empty)-1]
	}
	l.off = at%stashSegment + sz
	l.live[l.cur]++
	l.hits++
	if ahead := l.next(sz); ahead >= 0 {
		prefetchW(l.arena[ahead : ahead+sz])
	}
	return l.arena[at : at+n : at+n]
}

// next returns the arena offset where a Get of sz bytes (a multiple of
// stashAlign, at most a segment) would carve its entry now: right after
// the last entry in the current segment, else the start of the current
// segment if it has drained, else the start of the most recently emptied
// one; -1 if there is none and the Get would fall back to the heap. The
// entry always ends inside its segment.
func (l *StashLog) next(sz int) int {
	switch {
	case l.off+sz <= stashSegment:
		return l.cur*stashSegment + l.off
	case l.live[l.cur] == 0:
		return l.cur * stashSegment
	case len(l.empty) > 0:
		return int(l.empty[len(l.empty)-1]) * stashSegment
	}
	return -1
}

// Put takes back an entry Get carved. Release hands back nothing but the
// buffer, so its segment is found from its address: the unsigned offset
// of its first byte from the arena's start, which is len(arena) or more
// for a buffer from anywhere else (nil included) — those are ignored. A
// segment whose last entry comes back joins the empty ones, unless it is
// the one being written.
func (l *StashLog) Put(b []byte) {
	off := uintptr(unsafe.Pointer(unsafe.SliceData(b))) - uintptr(unsafe.Pointer(unsafe.SliceData(l.arena)))
	if cap(b) == 0 || off >= uintptr(len(l.arena)) {
		return
	}
	s := int(off / stashSegment)
	if l.live[s]--; l.live[s] == 0 && s != l.cur {
		l.empty = append(l.empty, int32(s))
	}
}

// Held returns the number of segments with entries not yet Put back.
func (l *StashLog) Held() int {
	n := 0
	for _, c := range l.live {
		if c > 0 {
			n++
		}
	}
	return n
}

// Stats returns the log's cumulative traffic counters: Hits are entries
// carved from the arena, misses heap allocations.
func (l *StashLog) Stats() PoolStats {
	return PoolStats{Gets: l.gets, Hits: l.hits, Oversize: l.oversize}
}
