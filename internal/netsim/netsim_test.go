package netsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

func twoHosts(t *testing.T, cfg LinkConfig) (*Network, *Host, *Host, *Node, *Node) {
	t.Helper()
	nw := New(1)
	ha, hb := &Host{}, &Host{}
	a := nw.AddNode("a", wire.AddrFrom(10, 0, 0, 1, 1), ha)
	b := nw.AddNode("b", wire.AddrFrom(10, 0, 0, 2, 1), hb)
	nw.Connect(a, b, cfg)
	return nw, ha, hb, a, b
}

func TestDeliveryLatencyMatchesSerializationPlusPropagation(t *testing.T) {
	cfg := LinkConfig{RateBps: Gbps(1), Delay: 5 * time.Millisecond, Overhead: 38}
	nw, _, hb, a, _ := twoHosts(t, cfg)
	payload := make([]byte, 962) // 962+38 = 1000 bytes = 8000 bits on the wire
	var deliveredAt time.Duration
	hb.Recv = func(f *Frame) { deliveredAt = time.Duration(nw.Now()) }
	a.SendTo(wire.AddrFrom(10, 0, 0, 2, 1), payload)
	nw.Loop().Run()
	want := 8*time.Microsecond + 5*time.Millisecond // 8000 bits at 1 Gbps + prop
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestBackToBackFramesSerialize(t *testing.T) {
	cfg := LinkConfig{RateBps: Gbps(1), Delay: time.Millisecond, Overhead: 38}
	nw, _, hb, a, _ := twoHosts(t, cfg)
	var times []time.Duration
	hb.Recv = func(f *Frame) { times = append(times, time.Duration(nw.Now())) }
	for i := 0; i < 3; i++ {
		a.SendTo(wire.AddrFrom(10, 0, 0, 2, 1), make([]byte, 962))
	}
	nw.Loop().Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d frames", len(times))
	}
	// Frames arrive spaced by serialization time (8 µs), all sharing one
	// propagation delay.
	if d := times[1] - times[0]; d != 8*time.Microsecond {
		t.Fatalf("spacing %v, want 8µs", d)
	}
	if d := times[2] - times[1]; d != 8*time.Microsecond {
		t.Fatalf("spacing %v, want 8µs", d)
	}
}

func TestQueueOverflowDropsTail(t *testing.T) {
	cfg := LinkConfig{RateBps: 1e6, Delay: 0, QueueBytes: 3000, Overhead: 0}
	nw, _, hb, a, _ := twoHosts(t, cfg)
	for i := 0; i < 10; i++ {
		a.SendTo(wire.AddrFrom(10, 0, 0, 2, 1), make([]byte, 1000))
	}
	nw.Loop().Run()
	st := a.Port(0).Stats
	if st.DropsQueueFull == 0 {
		t.Fatal("no queue-full drops")
	}
	if hb.Received+st.DropsQueueFull != 10 {
		t.Fatalf("received %d + dropped %d != 10", hb.Received, st.DropsQueueFull)
	}
	if st.QueueHighWatermark == 0 {
		t.Fatal("high watermark not recorded")
	}
}

func TestRandomLossRate(t *testing.T) {
	cfg := LinkConfig{RateBps: Gbps(100), LossProb: 0.1, QueueBytes: 1 << 30}
	nw, _, hb, a, _ := twoHosts(t, cfg)
	const n = 20000
	for i := 0; i < n; i++ {
		a.SendTo(wire.AddrFrom(10, 0, 0, 2, 1), make([]byte, 100))
	}
	nw.Loop().Run()
	got := float64(n-int(hb.Received)) / n
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("loss rate %.4f, want ~0.10", got)
	}
}

func TestBERLossScalesWithFrameSize(t *testing.T) {
	run := func(size int) float64 {
		cfg := LinkConfig{RateBps: Gbps(100), BER: 1e-6, QueueBytes: 1 << 30, Overhead: 0}
		nw, _, hb, a, _ := twoHosts(t, cfg)
		const n = 5000
		for i := 0; i < n; i++ {
			a.SendTo(wire.AddrFrom(10, 0, 0, 2, 1), make([]byte, size))
		}
		nw.Loop().Run()
		return float64(n-int(hb.Received)) / n
	}
	small, big := run(100), run(9000)
	if big <= small {
		t.Fatalf("BER loss should grow with frame size: small=%.4f big=%.4f", small, big)
	}
	// Expected corruption probability for 9000B at BER 1e-6 ≈ 1-exp(-0.072) ≈ 6.9%.
	if math.Abs(big-0.069) > 0.02 {
		t.Fatalf("big-frame loss %.4f, want ≈0.069", big)
	}
}

func TestPow1mAgainstMath(t *testing.T) {
	for _, tc := range []struct{ p, n float64 }{
		{1e-9, 8000}, {1e-6, 72000}, {1e-4, 12000}, {1e-3, 800}, {0.5, 10},
	} {
		got := pow1m(tc.p, tc.n)
		want := math.Pow(1-tc.p, tc.n)
		if math.Abs(got-want) > 1e-3 {
			t.Fatalf("pow1m(%g,%g) = %g, want %g", tc.p, tc.n, got, want)
		}
	}
}

func TestRouterForwardsByAddress(t *testing.T) {
	nw := New(1)
	ha, hb := &Host{}, &Host{}
	addrA, addrB := wire.AddrFrom(10, 0, 0, 1, 1), wire.AddrFrom(10, 0, 0, 2, 1)
	a := nw.AddNode("a", addrA, ha)
	b := nw.AddNode("b", addrB, hb)
	r := NewRouter()
	rt := nw.AddNode("r", wire.Addr{}, r)
	nw.Connect(a, rt, LinkConfig{RateBps: Gbps(1)})
	nw.Connect(b, rt, LinkConfig{RateBps: Gbps(1)})
	r.Route(addrA, 0).Route(addrB, 1)
	a.SendTo(addrB, []byte("hi"))
	b.SendTo(addrA, []byte("yo"))
	nw.Loop().Run()
	if ha.Received != 1 || hb.Received != 1 {
		t.Fatalf("received a=%d b=%d", ha.Received, hb.Received)
	}
	if r.Forwarded != 2 {
		t.Fatalf("forwarded %d", r.Forwarded)
	}
}

func TestRouterDropsUnroutable(t *testing.T) {
	nw := New(1)
	ha := &Host{}
	a := nw.AddNode("a", wire.AddrFrom(10, 0, 0, 1, 1), ha)
	r := NewRouter()
	rt := nw.AddNode("r", wire.Addr{}, r)
	nw.Connect(a, rt, LinkConfig{RateBps: Gbps(1)})
	var drops int
	nw.OnDrop(func(p *Port, f *Frame) { drops++ })
	a.SendTo(wire.AddrFrom(99, 9, 9, 9, 9), []byte("lost"))
	nw.Loop().Run()
	if r.NoRoute != 1 || drops != 1 {
		t.Fatalf("NoRoute=%d drops=%d", r.NoRoute, drops)
	}
}

func TestDeadlineAwareAQMEvictsAgedFirst(t *testing.T) {
	// Queue fits exactly two frames; fill it with one aged and one fresh
	// DMTP frame while the port is busy, then offer a third.
	h := wire.Header{ConfigID: 1, Features: wire.FeatAgeTracked}
	h.Age.AgeMicros, h.Age.MaxAgeMicros, h.Age.Flags = 100, 50, wire.AgedFlag
	aged, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Age.Flags, h.Age.AgeMicros = 0, 0
	fresh, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	pad := func(b []byte) []byte { return append(b, make([]byte, 1000-len(b))...) }

	// Frames are 1000 B of data + the default 38 B overhead = 1038 wire
	// bytes; the queue fits exactly two.
	cfg := LinkConfig{RateBps: 1e6, QueueBytes: 2100, DeadlineAware: true}
	nw, _, hb, a, _ := twoHosts(t, cfg)
	dst := wire.AddrFrom(10, 0, 0, 2, 1)
	var delivered [][]byte
	hb.Recv = func(f *Frame) { delivered = append(delivered, f.Data) }

	a.SendTo(dst, pad(fresh)) // starts transmitting immediately
	a.SendTo(dst, pad(aged))  // queued
	a.SendTo(dst, pad(fresh)) // queued; queue now full
	a.SendTo(dst, pad(fresh)) // must evict the aged frame
	nw.Loop().Run()

	st := a.Port(0).Stats
	if st.DropsAgedEvicted != 1 {
		t.Fatalf("aged evictions = %d", st.DropsAgedEvicted)
	}
	if len(delivered) != 3 {
		t.Fatalf("delivered %d frames", len(delivered))
	}
	for _, d := range delivered {
		age, err := wire.View(d).Age()
		if err != nil {
			t.Fatal(err)
		}
		if age.Aged() {
			t.Fatal("aged frame should have been evicted")
		}
	}
}

func TestDuplicateNamesAndAddressesPanic(t *testing.T) {
	nw := New(1)
	nw.AddNode("x", wire.AddrFrom(1, 1, 1, 1, 1), &Sink{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate name accepted")
			}
		}()
		nw.AddNode("x", wire.AddrFrom(1, 1, 1, 1, 2), &Sink{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate address accepted")
			}
		}()
		nw.AddNode("y", wire.AddrFrom(1, 1, 1, 1, 1), &Sink{})
	}()
}

func TestLookupByNameAndAddr(t *testing.T) {
	nw := New(1)
	addr := wire.AddrFrom(7, 7, 7, 7, 7)
	n := nw.AddNode("n", addr, &Sink{})
	if nw.NodeByName("n") != n || nw.NodeByAddr(addr) != n {
		t.Fatal("lookup failed")
	}
	if nw.NodeByName("zz") != nil {
		t.Fatal("phantom node")
	}
}

func TestAsymmetricLink(t *testing.T) {
	nw := New(1)
	ha, hb := &Host{}, &Host{}
	a := nw.AddNode("a", wire.AddrFrom(10, 0, 0, 1, 1), ha)
	b := nw.AddNode("b", wire.AddrFrom(10, 0, 0, 2, 1), hb)
	nw.ConnectAsym(a, b,
		LinkConfig{RateBps: Gbps(1), Delay: time.Millisecond},
		LinkConfig{RateBps: Gbps(1), Delay: 50 * time.Millisecond})
	var tA, tB time.Duration
	ha.Recv = func(f *Frame) { tA = time.Duration(nw.Now()) }
	hb.Recv = func(f *Frame) { tB = time.Duration(nw.Now()) }
	a.SendTo(b.Addr, []byte("x"))
	b.SendTo(a.Addr, []byte("x"))
	nw.Loop().Run()
	if tB >= tA {
		t.Fatalf("a→b took %v, b→a took %v; asymmetry lost", tB, tA)
	}
}

func TestJitterReordersFrames(t *testing.T) {
	cfg := LinkConfig{RateBps: Gbps(100), Delay: time.Millisecond, Jitter: 500 * time.Microsecond}
	nw, _, hb, a, _ := twoHosts(t, cfg)
	var order []int
	hb.Recv = func(f *Frame) { order = append(order, int(f.Data[0])) }
	for i := 0; i < 200; i++ {
		a.SendTo(wire.AddrFrom(10, 0, 0, 2, 1), []byte{byte(i)})
	}
	nw.Loop().Run()
	if len(order) != 200 {
		t.Fatalf("delivered %d", len(order))
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("jitter produced no reordering")
	}
}

func TestLinkFaultHook(t *testing.T) {
	// Script per-packet verdicts by arrival index: drop #2, duplicate #3,
	// corrupt #4 (flip bit 0), delay #5 by 1 ms.
	idx := 0
	fault := func(now sim.Time, f *Frame) FaultDecision {
		idx++
		d := FaultDecision{CorruptBit: -1}
		switch idx {
		case 2:
			d.Drop, d.Kind = true, "test.drop"
		case 3:
			d.Duplicate = true
		case 4:
			d.CorruptBit = 0
		case 5:
			d.ExtraDelay = time.Millisecond
		}
		return d
	}
	cfg := LinkConfig{RateBps: Gbps(100), Delay: 10 * time.Microsecond, Fault: fault}
	nw, _, hb, a, _ := twoHosts(t, cfg)
	type arrival struct {
		at   time.Duration
		data byte
	}
	var got []arrival
	hb.Recv = func(f *Frame) { got = append(got, arrival{time.Duration(nw.Now()), f.Data[0]}) }
	for i := 1; i <= 5; i++ {
		a.SendTo(wire.AddrFrom(10, 0, 0, 2, 1), []byte{byte(i)})
	}
	nw.Loop().Run()

	st := a.Port(0).Stats
	if st.DropsFault != 1 || st.FaultDuplicated != 1 || st.FaultCorrupted != 1 || st.FaultDelayed != 1 {
		t.Fatalf("fault stats %+v", st)
	}
	// 5 offered - 1 dropped + 1 duplicated = 5 arrivals; the delayed
	// packet (payload 5) lands last, 1 ms after the rest.
	if len(got) != 5 {
		t.Fatalf("arrivals %v", got)
	}
	counts := map[byte]int{}
	for _, g := range got {
		counts[g.data]++
	}
	if counts[2] != 0 {
		t.Fatal("dropped packet delivered")
	}
	if counts[3] != 2 {
		t.Fatalf("duplicate count %d", counts[3])
	}
	// Payload 4 with bit 0 flipped arrives as 5; together with the genuine
	// (delayed) 5 that makes two arrivals of value 5 and none of 4.
	if counts[4] != 0 || counts[5] != 2 {
		t.Fatalf("corruption not applied: %v", counts)
	}
	last := got[len(got)-1]
	if last.data != 5 || last.at < time.Millisecond {
		t.Fatalf("delayed packet not last/late: %+v", last)
	}
}
