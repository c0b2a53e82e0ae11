// Package sim provides the discrete-event simulation engine on which the
// network substrate (internal/netsim) runs. It replaces the paper's physical
// testbeds (FABRIC, the 100 GbE lab) with a deterministic virtual time base:
// events execute in strict (time, insertion-order) sequence, so every
// experiment in this repository is exactly reproducible from its seed.
//
// The event objects behind Timers are pooled on a per-loop free list and
// recycled when an event fires or is stopped, so the steady-state
// schedule→fire and schedule→stop cycles perform no heap allocation — the
// loop is the substrate under every per-packet simulated operation, making
// its allocation behaviour the floor for simulator throughput.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration re-exports time.Duration for call-site readability.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Nanos returns t as an unsigned nanosecond count, clamping negatives to 0.
// Wire timestamps (wire.DeadlineExt, wire.TimestampExt) use this form.
func (t Time) Nanos() uint64 {
	if t < 0 {
		return 0
	}
	return uint64(t)
}

func (t Time) String() string { return Duration(t).String() }

// event is the pooled heap entry behind a Timer handle. gen is bumped every
// time the event is recycled, so stale Timer handles (held after their event
// fired or was stopped) become inert instead of cancelling an unrelated
// later event that reuses the same object.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	index int // heap index, -1 while on the free list
	gen   uint64
	next  *event // free-list link
	loop  *Loop
}

// Timer is a handle to a scheduled event. The zero value is invalid (its
// Stop and Pending report false); Timers are created by Loop.At and
// Loop.After. Timer is a small value type: copy it freely, compare it to
// the zero Timer to mean "unset".
type Timer struct {
	ev  *event
	gen uint64
	at  Time
}

// Stop cancels the timer, immediately removing its event from the heap and
// recycling it. It reports whether the timer was still pending. Stopping an
// already-fired, already-stopped, or zero Timer is a no-op.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	l := t.ev.loop
	heap.Remove(&l.events, t.ev.index)
	l.free(t.ev)
	return true
}

// Pending reports whether the timer is still scheduled (not yet fired or
// stopped).
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.index >= 0
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	t := x.(*event)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// Loop is a single-threaded discrete-event loop. It is not safe for
// concurrent use; all simulated components run inside its callbacks.
type Loop struct {
	now    Time
	seq    uint64
	events eventHeap
	// freeList recycles fired/stopped events; the loop is single-threaded,
	// so no synchronisation is needed.
	freeList *event
	// processed counts fired (non-cancelled) events, for diagnostics.
	processed uint64
	// recycled counts events served from the free list, for allocation
	// diagnostics and tests.
	recycled uint64
}

// NewLoop returns an empty loop at time zero.
func NewLoop() *Loop { return &Loop{} }

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Processed returns the number of events fired so far.
func (l *Loop) Processed() uint64 { return l.processed }

// Recycled returns the number of event objects reused from the free list.
func (l *Loop) Recycled() uint64 { return l.recycled }

// Pending returns the number of scheduled events.
func (l *Loop) Pending() int { return len(l.events) }

// alloc takes an event from the free list, or heap-allocates on a cold
// start.
func (l *Loop) alloc() *event {
	if ev := l.freeList; ev != nil {
		l.freeList = ev.next
		ev.next = nil
		l.recycled++
		return ev
	}
	return &event{loop: l, index: -1}
}

// free recycles an event: the generation bump invalidates outstanding
// Timer handles before the object can be reused.
func (l *Loop) free(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.index = -1
	ev.next = l.freeList
	l.freeList = ev
}

// At schedules fn at absolute virtual time at. Scheduling in the past
// panics: it would silently reorder causality.
func (l *Loop) At(at Time, fn func()) Timer {
	if at < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, l.now))
	}
	l.seq++
	ev := l.alloc()
	ev.at = at
	ev.seq = l.seq
	ev.fn = fn
	heap.Push(&l.events, ev)
	return Timer{ev: ev, gen: ev.gen, at: at}
}

// After schedules fn after duration d. Negative durations panic.
func (l *Loop) After(d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return l.At(l.now.Add(d), fn)
}

// Step fires the next pending event, advancing virtual time to it. It
// reports whether an event was fired. The event object is recycled before
// its callback runs, so the callback can immediately reschedule without
// allocating.
func (l *Loop) Step() bool {
	if len(l.events) == 0 {
		return false
	}
	ev := heap.Pop(&l.events).(*event)
	l.now = ev.at
	l.processed++
	fn := ev.fn
	l.free(ev)
	fn()
	return true
}

// Run fires events until none remain.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// RunUntil fires events with time ≤ deadline, then sets the clock to the
// deadline (even if no event landed exactly there).
func (l *Loop) RunUntil(deadline Time) {
	for {
		next, ok := l.peek()
		if !ok || next > deadline {
			break
		}
		l.Step()
	}
	if l.now < deadline {
		l.now = deadline
	}
}

// RunFor advances the clock by d, firing all events inside the window.
func (l *Loop) RunFor(d Duration) { l.RunUntil(l.now.Add(d)) }

// peek returns the time of the next event.
func (l *Loop) peek() (Time, bool) {
	if len(l.events) == 0 {
		return 0, false
	}
	return l.events[0].at, true
}
