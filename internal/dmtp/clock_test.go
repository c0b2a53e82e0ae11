package dmtp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// sortedClock is the FakeClock that TimerQueue replaced, kept as the
// reference model: a slice sorted by (at, id) on every Schedule, stopped
// timers marked and skipped, NextAt a scan for the first live one.
type sortedClock struct {
	mu     sync.Mutex
	now    int64
	nextID uint64
	timers []*sortedTimer
}

type sortedTimer struct {
	at      int64
	id      uint64
	fn      func()
	c       *sortedClock
	stopped bool
}

func (c *sortedClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *sortedClock) Schedule(at int64, fn func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if at < c.now {
		at = c.now
	}
	t := &sortedTimer{at: at, id: c.nextID, fn: fn, c: c}
	c.nextID++
	c.timers = append(c.timers, t)
	sort.SliceStable(c.timers, func(i, j int) bool {
		if c.timers[i].at != c.timers[j].at {
			return c.timers[i].at < c.timers[j].at
		}
		return c.timers[i].id < c.timers[j].id
	})
	return t
}

func (t *sortedTimer) Stop() {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	t.stopped = true
}

func (c *sortedClock) NextAt() (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.timers {
		if !t.stopped {
			return t.at, true
		}
	}
	return 0, false
}

func (c *sortedClock) AdvanceTo(target int64) {
	for {
		c.mu.Lock()
		var due *sortedTimer
		idx := -1
		for i, t := range c.timers {
			if t.stopped {
				continue
			}
			if t.at <= target {
				due, idx = t, i
			}
			break
		}
		if due == nil {
			if c.now < target {
				c.now = target
			}
			c.mu.Unlock()
			return
		}
		c.timers = append(c.timers[:idx], c.timers[idx+1:]...)
		if c.now < due.at {
			c.now = due.at
		}
		c.mu.Unlock()
		due.fn()
	}
}

// manualClock is FakeClock's API, which both it and the reference serve.
type manualClock interface {
	Clock
	NextAt() (int64, bool)
	AdvanceTo(target int64)
}

// runTimerOps decodes ops, three bytes a call, into Schedule, Stop,
// AdvanceTo and NextAt calls on c, with callbacks that re-enter Schedule
// and Stop, and returns what is observable: each fire with the Now its
// callback saw, and each NextAt.
func runTimerOps(c manualClock, ops []byte) []string {
	var (
		log      []string
		handles  []Timer
		schedule func(at int64, kind byte)
	)
	schedule = func(at int64, kind byte) {
		id := len(handles)
		handles = append(handles, nil)
		handles[id] = c.Schedule(at, func() {
			now := c.Now()
			log = append(log, fmt.Sprintf("fire %d at %d", id, now))
			switch kind % 4 {
			case 1: // a child timer; kinds shrink, so chains end
				schedule(now+int64(kind>>4), kind>>2)
			case 2: // any handle: pending, stopped, or fired (this one included)
				handles[int(kind>>2)%len(handles)].Stop()
			}
		})
	}
	for ; len(ops) >= 3; ops = ops[3:] {
		a, b := ops[1], ops[2]
		switch ops[0] % 4 {
		case 0:
			schedule(c.Now()+int64(a)-32, b) // up to 32 ns in the past: clamped
		case 1:
			if len(handles) > 0 {
				handles[int(a)%len(handles)].Stop()
			}
		case 2:
			c.AdvanceTo(c.Now() + int64(a))
		case 3:
			at, ok := c.NextAt()
			log = append(log, fmt.Sprintf("next %d %v", at, ok))
		}
	}
	c.AdvanceTo(c.Now() + 1<<10)
	at, ok := c.NextAt()
	return append(log, fmt.Sprintf("end at %d, next %d %v", c.Now(), at, ok))
}

// FuzzTimerQueue runs random Schedule/Stop/AdvanceTo/NextAt sequences on
// FakeClock, over its TimerQueue, and on the sorted-slice reference: the
// fire order, the Now each callback sees and every NextAt must agree.
func FuzzTimerQueue(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 10, 0, 0, 5, 0, 3, 0, 0, 2, 50, 0})
	f.Add([]byte{0, 40, 1, 0, 40, 2, 0, 40, 6, 1, 1, 0, 3, 0, 0, 2, 9, 0, 2, 255, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 40, 0, 0, 33, 0xff, 0, 33, 0xfe, 2, 200, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		ops := make([]byte, 3*(1+rng.Intn(80)))
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		got := runTimerOps(NewFakeClock(0), ops)
		want := runTimerOps(&sortedClock{}, ops)
		if !slices.Equal(got, want) {
			t.Fatalf("FakeClock observed\n%v\nthe sorted reference\n%v", got, want)
		}
	})
}

// queueClock is the live receiver's arrangement: Now is a variable the
// test moves, and timers go into a TimerQueue fired at that reading.
type queueClock struct {
	now int64
	q   TimerQueue
}

func (c *queueClock) Now() int64                         { return c.now }
func (c *queueClock) Schedule(at int64, fn func()) Timer { return c.q.Schedule(at, fn) }

// TestTimerArmsWithoutAllocating: on a TimerQueue, arming and stopping
// the NAK timer allocates nothing, and an ACK cycle allocates only the
// encoded ACK packet, which SendControl takes ownership of.
func TestTimerArmsWithoutAllocating(t *testing.T) {
	c := &queueClock{now: 1}
	eng := NewReceiverEngine(c, nopDatapath{}, ReceiverConfig{
		NAKDelay:    time.Millisecond,
		NAKRetry:    5 * time.Millisecond,
		NAKRetryMax: 500 * time.Millisecond,
		MaxNAKs:     3,
		AckInterval: time.Millisecond,
	})
	pkt := seqPacket(t, 1, wire.AddrFrom(10, 0, 0, 1, 100), "payload")
	seq := uint64(1)
	ingest := func(s uint64) {
		if err := pkt.SetSeq(s); err != nil {
			t.Fatal(err)
		}
		eng.Ingest(pkt)
	}
	ingest(seq)
	gap := func() { // arms the NAK timer, then stops it
		ingest(seq + 2)
		ingest(seq + 1)
		seq += 2
	}
	ack := func() { // the ACK timer fires and re-arms
		c.now += int64(time.Millisecond)
		c.q.Fire(c.now)
	}
	for i := 0; i < 8; i++ {
		gap()
		ack()
	}
	if n := testing.AllocsPerRun(200, gap); n != 0 {
		t.Fatalf("arming and stopping the NAK timer allocates %.2f/op, want 0", n)
	}
	// Encoding one ACK is one allocation (two under -race, which keeps
	// slices.Grow's make apart from its append).
	var encoded []byte
	enc := testing.AllocsPerRun(200, func() {
		a := wire.Ack{CumulativeSeq: seq}
		encoded, _ = a.AppendTo(nil)
	})
	if n := testing.AllocsPerRun(200, func() {
		ingest(seq + 1) // keeps the stream active
		seq++
		ack()
	}); n != enc {
		t.Fatalf("an ACK cycle allocates %.2f/op, want %.2f: encoding the ACK packet, and nothing else", n, enc)
	}
	_ = encoded
}

// strictClock is a FakeClock whose handles fail the test when stopped dead
// — after their callback started or an earlier Stop returned — which the
// Timer contract forbids because a TimerQueue reuses them.
type strictClock struct {
	*FakeClock
	t testing.TB
}

type strictTimer struct {
	Timer
	t    testing.TB
	dead bool
}

func (c strictClock) Schedule(at int64, fn func()) Timer {
	h := &strictTimer{t: c.t}
	h.Timer = c.FakeClock.Schedule(at, func() {
		h.dead = true
		fn()
	})
	return h
}

func (h *strictTimer) Stop() {
	if h.dead {
		h.t.Fatal("Stop on a dead timer handle")
	}
	h.dead = true
	h.Timer.Stop()
}

// TestReceiverStopKeepsTimerRule: Stop with both of a stream's timers
// pending, after one has fired, cancels them without touching a dead
// handle, and a second Stop touches none. The window schedules and the
// resync test run the other call sites on a strictClock.
func TestReceiverStopKeepsTimerRule(t *testing.T) {
	fc := NewFakeClock(0)
	dp := &recDatapath{}
	eng := NewReceiverEngine(strictClock{fc, t}, dp, ReceiverConfig{
		NAKDelay:    time.Millisecond,
		NAKRetry:    5 * time.Millisecond,
		NAKRetryMax: 500 * time.Millisecond,
		MaxNAKs:     3,
		AckInterval: 2 * time.Millisecond,
	})
	buffer := wire.AddrFrom(10, 0, 0, 1, 100)
	eng.Ingest(seqPacket(t, 1, buffer, "a"))
	eng.Ingest(seqPacket(t, 3, buffer, "c"))
	fc.Advance(time.Millisecond) // the NAK fires and re-arms
	if len(dp.control) != 1 {
		t.Fatalf("%d control packets before Stop, want the one NAK", len(dp.control))
	}
	eng.Stop()
	eng.Stop()
	if _, ok := fc.NextAt(); ok {
		t.Fatal("timers pending after Stop")
	}
}
