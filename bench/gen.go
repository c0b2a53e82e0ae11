package main

import (
	"syscall"
	"time"
)

// creditBlock is how many deliveries the receiver side batches into one
// credit return. The generator then wakes once per block instead of once
// per message, and sleeps on the channel in between rather than spinning
// on a counter — on two cores a spinning generator would steal the relay's
// core and the measurement would be of the generator.
const creditBlock = 16

// window is the closed loop's flow control: at most size messages are in
// flight, a delivery returns its credit (in blocks), and a message the
// receiver wrote off returns its credit at once so a loss shrinks the
// result, not the window.
type window struct {
	ch    chan int
	avail int // generator side
	pend  int // receiver side: deliveries not yet returned as a block
	timer *time.Timer
}

// newWindow returns a window of size messages, a multiple of creditBlock so
// that a full window always comes back as whole blocks.
func newWindow(size int) *window {
	size -= size % creditBlock
	return &window{
		// Worst case every credit comes back singly (all written off), so
		// size slots mean a return never blocks the receiver.
		ch:    make(chan int, size),
		avail: size,
		timer: time.NewTimer(time.Hour),
	}
}

// delivered returns one credit from the receiver's read goroutine.
func (w *window) delivered() {
	if w.pend++; w.pend == creditBlock {
		w.pend = 0
		w.ch <- creditBlock
	}
}

// writtenOff returns the credit of a message the receiver gave up on; it
// may be called from any goroutine.
func (w *window) writtenOff() { w.ch <- 1 }

// acquire takes one credit, sleeping until one is returned. It reports
// false if none arrives within patience — the loop has stalled.
func (w *window) acquire(patience time.Duration) bool {
	if w.avail == 0 {
		w.timer.Reset(patience)
		select {
		case n := <-w.ch:
			w.avail = n
			if !w.timer.Stop() {
				<-w.timer.C
			}
		case <-w.timer.C:
			return false
		}
	}
drain:
	for {
		select {
		case n := <-w.ch:
			w.avail += n
		default:
			break drain
		}
	}
	w.avail--
	return true
}

// pacer is the open-loop schedule: burst k is due at start + k·interval,
// computed from the start each time so lateness never accumulates into the
// schedule (a late burst is measured as late; the next is still due on
// time).
type pacer struct {
	start    time.Time
	interval time.Duration
}

func (p pacer) due(k int) time.Time { return p.start.Add(time.Duration(k) * p.interval) }

// bursts is how many whole intervals fit in d.
func (p pacer) bursts(d time.Duration) int { return int(d / p.interval) }

// spinLead is how long before a burst is due the generator stops sleeping
// and spins: nanosleep on this class of machine overshoots by ~150 µs at
// the median and ~500 µs at p99, and a burst sent late is latency charged
// to the program under test.
const spinLead = 1000 * time.Microsecond

// waitUntil sleeps (nanosleep, on the caller's locked OS thread) until
// spinLead before t, spins the rest, and returns how late it woke.
func waitUntil(t time.Time) time.Duration {
	if d := time.Until(t) - spinLead; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early EINTR return just lengthens the spin
	}
	for {
		if late := time.Since(t); late >= 0 {
			return late
		}
	}
}
