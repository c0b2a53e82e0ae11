package wire

import (
	"encoding/binary"
	"testing"
	"unsafe"
)

// addr is the address of b's first byte.
func addr(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// segOf returns the arena segment b was carved from, or -1.
func (l *StashLog) segOf(b []byte) int {
	off := addr(b) - addr(l.arena)
	if cap(b) == 0 || off >= uintptr(len(l.arena)) {
		return -1
	}
	return int(off / stashSegment)
}

// TestStashLog holds the stash log to its rules: entries back to back in
// allocation order, cap == len, a segment reused only once its last entry
// is back and not while it is being written, most recently emptied first,
// fallbacks counted, foreign buffers ignored, and no allocation once warm.
func TestStashLog(t *testing.T) {
	const seg = stashSegment
	for _, tc := range []struct {
		name     string
		capacity int // the arena is this plus an eighth, in whole segments
		run      func(t *testing.T, l *StashLog)
	}{
		{"entries are adjacent in allocation order", seg, func(t *testing.T, l *StashLog) {
			at := addr(l.arena)
			for _, n := range []int{316, 1084, 64, 1, 9000} {
				b := l.Get(n)
				if addr(b) != at || len(b) != n || cap(b) != n {
					t.Fatalf("Get(%d) at +%d len %d cap %d, want at +%d with cap == len",
						n, addr(b)-addr(l.arena), len(b), cap(b), at-addr(l.arena))
				}
				if addr(b)%stashAlign != 0 {
					t.Fatalf("Get(%d) at %#x, not %d-B aligned", n, addr(b), stashAlign)
				}
				at += uintptr(n+stashAlign-1) &^ (stashAlign - 1)
			}
			if st := l.Stats(); st != (PoolStats{Gets: 5, Hits: 5}) {
				t.Fatalf("stats %+v", st)
			}
		}},
		{"a segment returns once its last entry does, not while written", 2 * seg * 8 / 9, func(t *testing.T, l *StashLog) {
			var first [4][]byte
			for i := range first {
				first[i] = l.Get(seg / 4)
			}
			for _, b := range first[:3] {
				l.Put(b)
			}
			if len(l.empty) != 1 {
				t.Fatalf("%d empty segments with an entry of segment 0 out, want 1", len(l.empty))
			}
			next := l.Get(100)
			if l.segOf(next) != 1 {
				t.Fatalf("the Get after a full segment 0 went to segment %d, want 1", l.segOf(next))
			}
			l.Put(first[3])
			if len(l.empty) != 1 || l.empty[0] != 0 {
				t.Fatalf("empty segments %v after segment 0's last Put, want [0]", l.empty)
			}
			l.Put(next) // segment 1 empties while it is written: it stays current
			if len(l.empty) != 1 || l.Held() != 0 {
				t.Fatalf("empty segments %v, %d held; want [0] and none", l.empty, l.Held())
			}
			if b := l.Get(100); addr(b) != addr(next)+128 {
				t.Fatalf("the write position moved when its segment emptied: +%d, want +128", addr(b)-addr(next))
			}
		}},
		{"the most recently emptied segment is reused first", 4 * seg * 8 / 9, func(t *testing.T, l *StashLog) {
			var whole [4][]byte
			for i := range whole {
				whole[i] = l.Get(seg)
			}
			l.Put(whole[0])
			l.Put(whole[1])
			if s := l.segOf(l.Get(1)); s != 1 {
				t.Fatalf("reused segment %d, want 1, the last emptied", s)
			}
			if s := l.segOf(l.Get(seg)); s != 0 {
				t.Fatalf("then segment %d, want 0", s)
			}
		}},
		{"exhaustion falls back to the heap and is counted", seg * 8 / 9, func(t *testing.T, l *StashLog) {
			full := l.Get(seg)
			spill := l.Get(10)
			if l.segOf(spill) >= 0 || len(spill) != 10 || cap(spill) != 10 {
				t.Fatalf("a Get with no empty segment: segment %d, len %d cap %d; want a heap buffer of 10",
					l.segOf(spill), len(spill), cap(spill))
			}
			if st := l.Stats(); st != (PoolStats{Gets: 2, Hits: 1}) || st.Misses() != 1 {
				t.Fatalf("stats %+v", st)
			}
			l.Put(spill)
			if l.live[0] != 1 {
				t.Fatalf("the fallback's Put moved the count: %d, want 1", l.live[0])
			}
			l.Put(full)
			if b := l.Get(10); addr(b) != addr(l.arena) {
				t.Fatal("the emptied segment was not rewritten from its start")
			}
		}},
		{"an oversize Get is a plain allocation", seg, func(t *testing.T, l *StashLog) {
			held := l.Get(10)
			big := l.Get(seg + 1)
			if l.segOf(big) >= 0 || len(big) != seg+1 || cap(big) != seg+1 {
				t.Fatalf("an oversize Get: segment %d, len %d cap %d; want a heap buffer of %d",
					l.segOf(big), len(big), cap(big), seg+1)
			}
			if st := l.Stats(); st != (PoolStats{Gets: 2, Hits: 1, Oversize: 1}) || st.Misses() != 1 {
				t.Fatalf("stats %+v", st)
			}
			l.Put(big)
			if l.live[0] != 1 {
				t.Fatalf("the oversize Put moved the count: %d, want 1", l.live[0])
			}
			if b := l.Get(10); addr(b) != addr(held)+stashAlign {
				t.Fatal("the oversize Get moved the write position")
			}
		}},
		{"a foreign buffer's Put leaves the counts alone", seg, func(t *testing.T, l *StashLog) {
			b := l.Get(1000)
			l.Put(nil)
			l.Put(make([]byte, 1000))
			l.Put(b[:0:0])
			l.Put(l.Get(0))
			if l.live[0] != 1 || len(l.empty) != 1 || l.Held() != 1 {
				t.Fatalf("counts %v, empty %v after foreign Puts; want [1 0], [1]", l.live, l.empty)
			}
			l.Put(b[:1]) // a sub-slice is its entry
			if l.Held() != 0 {
				t.Fatal("the entry's Put did not count")
			}
		}},
		{"the steady state allocates nothing", 1 << 20, func(t *testing.T, l *StashLog) {
			// A FIFO window of half the arena: segments fill, drain and
			// come back round.
			var ring [512][]byte
			i := 0
			step := func() {
				if ring[i] != nil {
					l.Put(ring[i])
				}
				ring[i] = l.Get(1084)
				i = (i + 1) % len(ring)
			}
			for range 4 * len(ring) {
				step()
			}
			if avg := testing.AllocsPerRun(2000, step); avg != 0 {
				t.Fatalf("Get/Put allocates %.2f allocs/op, want 0", avg)
			}
			if st := l.Stats(); st.Misses() != 0 {
				t.Fatalf("%d fallbacks in a window the arena holds", st.Misses())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, NewStashLog(tc.capacity)) })
	}
}

// TestStashLogNext holds next, the offset Get carves at and write-prefetches
// one entry ahead, to the address the next Get of that size returns, in
// every way Get can place an entry; the prefetched bytes must end inside
// their segment even when the last entry ends at a segment boundary or at
// the arena's end.
func TestStashLogNext(t *testing.T) {
	const seg = stashSegment
	for _, tc := range []struct {
		name     string
		capacity int
		setup    func(l *StashLog)
		n        int // the next Get's length
		want     int // its arena offset; -1 for a heap buffer
	}{
		{"within a segment", seg, func(l *StashLog) {
			l.Get(100)
			l.Get(1084)
		}, 1084, 128 + 1088},
		{"past a segment's end, the most recently emptied segment", 4 * seg * 8 / 9, func(l *StashLog) {
			var whole [4][]byte
			for i := range whole {
				whole[i] = l.Get(seg)
			}
			l.Put(whole[0])
			l.Put(whole[1])
		}, 1, seg},
		{"an entry ending at a segment boundary, the next segment", 2 * seg * 8 / 9, func(l *StashLog) {
			l.Get(seg - 64)
			l.Get(64)
		}, 64, seg},
		{"the current segment, drained, before an empty one", 2 * seg * 8 / 9, func(l *StashLog) {
			a, b := l.Get(seg/2), l.Get(seg/2-64)
			l.Put(a)
			l.Put(b)
		}, seg / 2, 0},
		{"within the arena's last segment", 2 * seg * 8 / 9, func(l *StashLog) {
			l.Get(seg)
			l.Get(100)
		}, 100, seg + 128},
		{"an entry ending at the arena's end, nothing empty", 2 * seg * 8 / 9, func(l *StashLog) {
			l.Get(seg)
			l.Get(seg)
		}, 64, -1},
		{"a segment too full, nothing empty", seg * 8 / 9, func(l *StashLog) {
			l.Get(seg - 64)
		}, 128, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewStashLog(tc.capacity)
			tc.setup(l)
			sz := (tc.n + stashAlign - 1) &^ (stashAlign - 1)
			if got := l.next(sz); got != tc.want {
				t.Fatalf("next(%d) = %d, want %d", sz, got, tc.want)
			}
			if tc.want >= 0 && (tc.want%stashAlign != 0 || tc.want%seg+sz > seg || tc.want+sz > len(l.arena)) {
				t.Fatalf("the table's offset %d for %d B is not an entry in one segment", tc.want, sz)
			}
			b := l.Get(tc.n)
			if tc.want < 0 {
				if l.segOf(b) >= 0 {
					t.Fatalf("Get(%d) carved at +%d, want a heap buffer", tc.n, addr(b)-addr(l.arena))
				}
				return
			}
			if l.segOf(b) < 0 || int(addr(b)-addr(l.arena)) != tc.want {
				t.Fatalf("Get(%d) returned segment %d, want the entry at +%d", tc.n, l.segOf(b), tc.want)
			}
		})
	}
}

// FuzzStashLog drives random Get/Put sequences on a log of one to four
// segments against a model of what is live: every Get is cap == len and
// aligned, no two live entries overlap, a pattern written at Get is intact
// at Put, each segment's count is the model's, the empty segments are
// exactly the ones holding nothing apart from the one being written, a
// fallback happens only when nothing could be carved, and every carved
// entry is where next (Get's prefetch target) said it would be.
func FuzzStashLog(f *testing.F) {
	f.Add(byte(0), []byte{0, 0x10, 0, 0, 0x10, 0, 1, 0, 0, 2, 0, 0})
	f.Add(byte(3), []byte{0, 0xff, 0xff, 0, 0xff, 0xff, 0, 0xff, 0xff, 0, 0xff, 0xff, 0, 0xff, 0xff, 1, 2, 0, 0, 0xff, 0xff, 1, 0, 0})
	f.Add(byte(1), []byte{0, 0x04, 0x3c, 3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0x04, 0x3c, 2, 0, 0})
	f.Fuzz(func(t *testing.T, segs byte, ops []byte) {
		n := int(segs%4) + 1
		l := NewStashLog(n * stashSegment * 8 / 9)
		if len(l.live) != n {
			t.Fatalf("%d segments, want %d", len(l.live), n)
		}
		type entry struct {
			b    []byte
			seed byte
		}
		var live []entry
		var gets, hits uint64
		for k := 0; k+2 < len(ops) && k < 3*2000; k += 3 {
			op, arg := ops[k], int(binary.BigEndian.Uint16(ops[k+1:]))
			switch op % 4 {
			case 0, 3: // Get
				size := arg
				if op%4 == 3 {
					size = arg * 5 // up to beyond a segment
				}
				sz := (size + stashAlign - 1) &^ (stashAlign - 1)
				carve := size > 0 && sz <= stashSegment && (l.off+sz <= stashSegment || l.live[l.cur] == 0 || len(l.empty) > 0)
				at := -1
				if size > 0 && sz <= stashSegment {
					at = l.next(sz)
					if (at >= 0) != carve || at >= 0 && (at%stashAlign != 0 || at%stashSegment+sz > stashSegment) {
						t.Fatalf("next(%d) = %d, want an aligned entry inside one segment iff Get carves (%v)", sz, at, carve)
					}
				}
				b := l.Get(size)
				gets++
				if len(b) != size || cap(b) != size {
					t.Fatalf("Get(%d): len %d cap %d", size, len(b), cap(b))
				}
				if got := l.segOf(b) >= 0; got != carve {
					t.Fatalf("Get(%d) carved %v, want %v (offset %d, segment %d holds %d, %d empty)",
						size, got, carve, l.off, l.cur, l.live[l.cur], len(l.empty))
				}
				if carve {
					hits++
					if got := int(addr(b) - addr(l.arena)); got != at {
						t.Fatalf("Get(%d) carved at +%d, next said +%d", size, got, at)
					}
					if addr(b)%stashAlign != 0 {
						t.Fatalf("Get(%d) at %#x, not aligned", size, addr(b))
					}
					for _, e := range live {
						if addr(b) < addr(e.b)+uintptr(len(e.b)) && addr(e.b) < addr(b)+uintptr(size) {
							t.Fatalf("Get(%d) at +%d overlaps a live entry at +%d of %d B",
								size, addr(b)-addr(l.arena), addr(e.b)-addr(l.arena), len(e.b))
						}
					}
				}
				seed := byte(k)
				for i := range b {
					b[i] = seed + byte(i)
				}
				live = append(live, entry{b, seed})
			case 1: // Put a live entry
				if len(live) == 0 {
					continue
				}
				i := arg % len(live)
				e := live[i]
				for j := range e.b {
					if e.b[j] != e.seed+byte(j) {
						t.Fatalf("entry of %d B overwritten at byte %d while live", len(e.b), j)
					}
				}
				l.Put(e.b)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2: // Put a foreign buffer
				l.Put(make([]byte, arg%2048))
			}

			want := make([]int32, n)
			for _, e := range live {
				if s := l.segOf(e.b); s >= 0 {
					want[s]++
				}
			}
			isEmpty := make([]bool, n)
			for _, s := range l.empty {
				if isEmpty[s] {
					t.Fatalf("segment %d is on the empty stack twice: %v", s, l.empty)
				}
				isEmpty[s] = true
			}
			for s := range want {
				if l.live[s] != want[s] {
					t.Fatalf("segment %d counts %d entries, the model %d", s, l.live[s], want[s])
				}
				if wantEmpty := want[s] == 0 && s != l.cur; isEmpty[s] != wantEmpty {
					t.Fatalf("segment %d (holding %d, current %d) on the empty stack: %v, want %v",
						s, want[s], l.cur, isEmpty[s], wantEmpty)
				}
			}
			if st := l.Stats(); st.Gets != gets || st.Hits != hits {
				t.Fatalf("stats %+v, want %d gets and %d hits", st, gets, hits)
			}
		}
	})
}
