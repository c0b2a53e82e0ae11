package main

import (
	"testing"
	"time"
)

func TestWindowCreditAccounting(t *testing.T) {
	w := newWindow(2 * creditBlock)
	for i := 0; i < 2*creditBlock; i++ {
		if !w.acquire(time.Second) {
			t.Fatalf("credit %d of a fresh window not granted", i)
		}
	}
	if w.acquire(10 * time.Millisecond) {
		t.Fatal("a full window granted another credit")
	}

	// Deliveries come back in whole blocks only.
	for i := 0; i < creditBlock-1; i++ {
		w.delivered()
	}
	if w.acquire(10 * time.Millisecond) {
		t.Fatal("a partial block returned credit")
	}
	w.delivered()
	for i := 0; i < creditBlock; i++ {
		if !w.acquire(time.Second) {
			t.Fatalf("credit %d of a returned block not granted", i)
		}
	}

	// A write-off returns its credit at once, on its own.
	w.writtenOff()
	if !w.acquire(time.Second) {
		t.Fatal("a written-off message did not return its credit")
	}
	if w.acquire(10 * time.Millisecond) {
		t.Fatal("one write-off returned more than one credit")
	}
}

// With every message either delivered or written off, the loop must keep
// moving: a lost credit would stall it within a window's worth of sends.
func TestWindowNoDeadlockUnderWriteOffs(t *testing.T) {
	const total = 50_000
	const size = 256
	w := newWindow(size)
	sent := make(chan int, size) // the "network": what is in flight
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range sent {
			if i%97 == 0 {
				w.writtenOff()
			} else {
				w.delivered()
			}
		}
	}()
	for i := 0; i < total; i++ {
		if !w.acquire(5 * time.Second) {
			t.Fatalf("stalled after %d sends", i)
		}
		sent <- i
	}
	close(sent)
	<-done
}

func TestWindowSizeIsWholeBlocks(t *testing.T) {
	for _, wl := range workloads {
		if n := wl.window(); n%creditBlock != 0 || n <= 0 || n > pacedBacklog || n*wl.payload > windowBytes {
			t.Errorf("%s: window %d messages of %d B", wl.name, n, wl.payload)
		}
	}
}

func TestPacerDueTimes(t *testing.T) {
	start := time.Unix(1_700_000_000, 123)
	p := pacer{start: start, interval: pacedInterval}
	if got := p.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v, want the start", got)
	}
	// Due times come from the start, not from the previous burst, so they
	// cannot drift however late any burst ran.
	if got, want := p.due(1000), start.Add(2*time.Second); !got.Equal(want) {
		t.Errorf("due(1000) = %v, want %v", got, want)
	}
	if got := p.bursts(2250 * time.Millisecond); got != 1125 {
		t.Errorf("bursts(2.25 s) = %d, want 1125", got)
	}
	if got := p.bursts(time.Millisecond); got != 0 {
		t.Errorf("bursts(1 ms) = %d, want 0", got)
	}
	// 64 messages every 2 ms is the advertised 32 000 msgs/s.
	if rate := float64(pacedBurst) / pacedInterval.Seconds(); rate != 32000 {
		t.Errorf("paced rate = %v msgs/s, want 32000", rate)
	}
}

func TestWaitUntilIsNeverEarly(t *testing.T) {
	for _, d := range []time.Duration{0, 200 * time.Microsecond, 3 * time.Millisecond} {
		at := time.Now().Add(d)
		late := waitUntil(at)
		if now := time.Now(); now.Before(at) || late < 0 {
			t.Errorf("waitUntil(+%v) returned %v early (late=%v)", d, at.Sub(now), late)
		}
	}
}
