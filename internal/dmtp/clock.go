package dmtp

import (
	"container/heap"
	"sync"
	"time"
)

// WallClock backs the Clock contract with real time: Now is
// time.Now().UnixNano() and Schedule is time.AfterFunc, whose callbacks
// run on goroutines of their own. The live roles read only its Now: the
// live receiver serves its engine's timers from its read loop, on a
// TimerQueue.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() int64 { return time.Now().UnixNano() }

// Schedule implements Clock. fn runs on its own goroutine, as with
// time.AfterFunc; a caller needing mutual exclusion provides it.
func (WallClock) Schedule(at int64, fn func()) Timer {
	d := time.Duration(at - time.Now().UnixNano())
	if d < 0 {
		d = 0
	}
	return wallTimer{time.AfterFunc(d, fn)}
}

type wallTimer struct{ t *time.Timer }

func (w wallTimer) Stop() { w.t.Stop() }

// TimerQueue is a set of one-shot timers in a binary min-heap keyed (due
// time, schedule order), the firing order the Clock contract requires. It
// is the one timer implementation behind FakeClock and the live
// receiver's read-loop timers. It does no locking: its owner serializes
// every call, callbacks included.
//
// Entries are recycled, so a warm queue schedules without allocating. The
// handle Schedule returns is the entry itself and obeys Timer's rule: it is
// dead once its callback starts or its Stop returns.
type TimerQueue struct {
	h    timerHeap
	seq  uint64
	free []*queuedTimer
}

type queuedTimer struct {
	q   *TimerQueue
	at  int64
	seq uint64 // schedule order, the tie-break between equal due times
	fn  func()
	i   int    // index in q.h; -1 while not queued
	gen uint64 // bumped each time the entry is released, for FakeClock's handles
}

// Schedule queues fn to run at at. Unlike Clock.Schedule it does not
// clamp at: the queue does not know the time. A timer due in the past
// fires at the next Fire.
func (q *TimerQueue) Schedule(at int64, fn func()) Timer { return q.push(at, fn) }

func (q *TimerQueue) push(at int64, fn func()) *queuedTimer {
	var t *queuedTimer
	if n := len(q.free); n > 0 {
		t, q.free = q.free[n-1], q.free[:n-1]
	} else {
		t = &queuedTimer{q: q}
	}
	t.at, t.seq, t.fn = at, q.seq, fn
	q.seq++
	heap.Push(&q.h, t)
	return t
}

// Stop implements Timer.
func (t *queuedTimer) Stop() { t.q.remove(t) }

// remove unqueues t, if it is queued, and recycles it.
func (q *TimerQueue) remove(t *queuedTimer) {
	if t.i < 0 {
		return
	}
	heap.Remove(&q.h, t.i)
	t.i, t.fn = -1, nil
	t.gen++
	q.free = append(q.free, t)
}

// NextAt reports when the earliest pending timer is due.
func (q *TimerQueue) NextAt() (int64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// pop removes the earliest timer if it is due at or before now and returns
// its due time and callback. Its entry is recycled before the callback
// runs: the handle is dead from here on.
func (q *TimerQueue) pop(now int64) (at int64, fn func(), ok bool) {
	if len(q.h) == 0 || q.h[0].at > now {
		return 0, nil, false
	}
	t := q.h[0]
	at, fn = t.at, t.fn
	q.remove(t)
	return at, fn, true
}

// Fire runs every timer due at or before now, in (due time, schedule
// order), including timers the callbacks schedule that are due by now.
func (q *TimerQueue) Fire(now int64) {
	for {
		_, fn, ok := q.pop(now)
		if !ok {
			return
		}
		fn()
	}
}

// timerHeap is container/heap's view of the queue; Swap keeps each entry's
// index current so Stop removes in O(log n).
type timerHeap []*queuedTimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].i, h[j].i = i, j
}

func (h *timerHeap) Push(x any) {
	t := x.(*queuedTimer)
	t.i = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return t
}

// FakeClock is a manually advanced Clock for deterministic tests: time
// stands still until Advance/AdvanceTo moves it, firing due timers in
// (time, schedule order) on the caller's goroutine — the same ordering
// the simulator loop guarantees, which is what lets the conformance
// suite run the live substrate against a frozen, scripted clock.
type FakeClock struct {
	mu     sync.Mutex
	now    int64
	timers TimerQueue
}

// fakeTimer is FakeClock's handle. Stop takes the clock's lock, and the
// generation makes stopping a timer that already fired or stopped a
// no-op even after its entry has been reused.
type fakeTimer struct {
	fc  *FakeClock
	t   *queuedTimer
	gen uint64
}

// NewFakeClock starts a fake clock at the given time.
func NewFakeClock(start int64) *FakeClock { return &FakeClock{now: start} }

// Now implements Clock.
func (f *FakeClock) Now() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Schedule implements Clock. Timers scheduled in the past fire on the
// next Advance (they are clamped to now, not fired inline).
func (f *FakeClock) Schedule(at int64, fn func()) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	if at < f.now {
		at = f.now
	}
	t := f.timers.push(at, fn)
	return &fakeTimer{fc: f, t: t, gen: t.gen}
}

func (h *fakeTimer) Stop() {
	h.fc.mu.Lock()
	defer h.fc.mu.Unlock()
	if h.t.gen == h.gen {
		h.fc.timers.remove(h.t)
	}
}

// NextAt reports the fire time of the earliest pending timer.
func (f *FakeClock) NextAt() (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.timers.NextAt()
}

// AdvanceTo moves time to target, firing every due timer in order. The
// clock's own lock is released around each callback, so callbacks may
// re-enter Schedule/Stop (engines re-arm their NAK timers from inside a
// fire).
func (f *FakeClock) AdvanceTo(target int64) {
	for {
		f.mu.Lock()
		at, fn, ok := f.timers.pop(target)
		if !ok {
			if f.now < target {
				f.now = target
			}
			f.mu.Unlock()
			return
		}
		if f.now < at {
			f.now = at
		}
		f.mu.Unlock()
		fn()
	}
}

// Advance moves time forward by d, firing due timers in order.
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now + int64(d)
	f.mu.Unlock()
	f.AdvanceTo(target)
}
