package p4sim

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// switchRig wires hostA ── switch ── hostB with the given stages.
type switchRig struct {
	nw           *netsim.Network
	a, b         *netsim.Host
	aNode, bNode *netsim.Node
	sw           *Switch
	swNode       *netsim.Node
	aAddr, bAddr wire.Addr
}

func newSwitchRig(t *testing.T, latency time.Duration, stages ...Stage) *switchRig {
	t.Helper()
	r := &switchRig{
		nw:    netsim.New(1),
		a:     &netsim.Host{},
		b:     &netsim.Host{},
		aAddr: wire.AddrFrom(10, 0, 0, 1, 1),
		bAddr: wire.AddrFrom(10, 0, 0, 2, 1),
	}
	fwd := NewForwarder().Route(r.aAddr, 0).Route(r.bAddr, 1)
	r.sw = NewSwitch(fwd, latency, stages...)
	r.swNode = r.nw.AddNode("sw", wire.Addr{}, r.sw)
	r.aNode = r.nw.AddNode("a", r.aAddr, r.a)
	r.bNode = r.nw.AddNode("b", r.bAddr, r.b)
	r.nw.Connect(r.swNode, r.aNode, netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: time.Microsecond})
	r.nw.Connect(r.swNode, r.bNode, netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: time.Microsecond})
	return r
}

func (r *switchRig) sendDMTP(t *testing.T, h wire.Header, payload string) {
	t.Helper()
	data, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	r.aNode.SendTo(r.bAddr, append(data, payload...))
}

func TestSwitchForwardsDMTPThroughPipeline(t *testing.T) {
	at := &AgeTracker{PortDeltaMicros: map[int]uint32{WildcardPort: 100}}
	rig := newSwitchRig(t, 400*time.Nanosecond, at)
	var got []wire.View
	rig.b.Recv = func(f *netsim.Frame) { got = append(got, wire.View(f.Data)) }

	for i := 0; i < 3; i++ {
		h := wire.Header{ConfigID: 1, Features: wire.FeatAgeTracked}
		h.Age.AgeMicros = uint32(i)
		h.Age.MaxAgeMicros = 1000
		rig.sendDMTP(t, h, "x")
	}
	rig.nw.Loop().Run()
	if len(got) != 3 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, v := range got {
		if age, _ := v.Age(); age.AgeMicros != uint32(i+100) {
			t.Fatalf("frame %d age %d", i, age.AgeMicros)
		}
	}
	if rig.sw.Pipeline.Processed != 3 {
		t.Fatalf("processed %d", rig.sw.Pipeline.Processed)
	}
}

func TestSwitchPipelineLatencyApplied(t *testing.T) {
	const lat = 10 * time.Microsecond
	rig := newSwitchRig(t, lat)
	var at time.Duration
	rig.b.Recv = func(f *netsim.Frame) { at = time.Duration(rig.nw.Now()) }
	rig.sendDMTP(t, wire.Header{ConfigID: 1}, "")
	rig.nw.Loop().Run()
	// 2 links (1 µs each + tiny serialization) + 10 µs pipeline.
	if at < lat+2*time.Microsecond || at > lat+10*time.Microsecond {
		t.Fatalf("delivery at %v, want ≈%v", at, lat+2*time.Microsecond)
	}
}

func TestSwitchPassesThroughNonDMTP(t *testing.T) {
	rig := newSwitchRig(t, 400*time.Nanosecond)
	var got [][]byte
	rig.b.Recv = func(f *netsim.Frame) { got = append(got, f.Data) }
	// A baseline-style frame: first byte in the control range but not a
	// decodable DMTP control; still forwarded because control packets
	// have only the core header. Use genuinely non-DMTP junk instead.
	junk := []byte{0xEE, 0xFF, 0xFF, 0xFF, 1, 2} // undefined feature bits + short
	rig.aNode.SendTo(rig.bAddr, junk)
	rig.nw.Loop().Run()
	if len(got) != 1 || rig.sw.PassedThrough != 1 {
		t.Fatalf("passthrough failed: got %d, counter %d", len(got), rig.sw.PassedThrough)
	}
	if rig.sw.Pipeline.Processed != 0 {
		t.Fatal("junk frame hit the pipeline")
	}
}

func TestSwitchDropsUnroutableDMTP(t *testing.T) {
	rig := newSwitchRig(t, 400*time.Nanosecond)
	h := wire.Header{ConfigID: 1}
	data, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.aNode.SendTo(wire.AddrFrom(99, 99, 99, 99, 99), data)
	rig.nw.Loop().Run()
	if rig.sw.Dropped != 1 {
		t.Fatalf("dropped %d", rig.sw.Dropped)
	}
}

func TestSwitchEmitsMintsAndCopies(t *testing.T) {
	// Deadline marker mints a notification to host A while the data
	// packet continues to host B; a duplicator also copies it to A.
	dm := &DeadlineMarker{Reporter: wire.AddrFrom(1, 1, 1, 1, 1)}
	dup := NewDuplicator()
	rig := newSwitchRig(t, 400*time.Nanosecond, dm, dup)
	dup.Group(3, Copy{Port: -1, Dst: rig.aAddr})

	var toA, toB int
	var sawNote bool
	rig.a.Recv = func(f *netsim.Frame) {
		toA++
		if _, err := wire.DecodeDeadlineExceeded(f.Data); err == nil {
			sawNote = true
		}
	}
	rig.b.Recv = func(f *netsim.Frame) { toB++ }

	h := wire.Header{ConfigID: 1, Features: wire.FeatTimely | wire.FeatDuplicate}
	h.Deadline.DeadlineNanos = 1 // long past at processing time
	h.Deadline.Notify = rig.aAddr
	h.Dup.Group, h.Dup.Scope = 3, 1
	rig.nw.Loop().After(time.Millisecond, func() {
		rig.sendDMTP(t, h, "payload")
	})
	rig.nw.Loop().Run()

	if toB != 1 {
		t.Fatalf("primary deliveries %d", toB)
	}
	if toA != 2 { // one mint + one duplicate copy
		t.Fatalf("deliveries to A: %d", toA)
	}
	if !sawNote {
		t.Fatal("deadline notification missing")
	}
	if dup.Duplicated != 1 || dm.Notified != 1 {
		t.Fatalf("dup=%d notified=%d", dup.Duplicated, dm.Notified)
	}
}

func TestSwitchDropReasonOnPipelineError(t *testing.T) {
	at := &AgeTracker{PortDeltaMicros: map[int]uint32{WildcardPort: 100}}
	rig := newSwitchRig(t, 400*time.Nanosecond, at)
	// Claim FeatAgeTracked but truncate the extension: stage error → drop.
	h := wire.Header{ConfigID: 1, Features: wire.FeatAgeTracked}
	data, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.aNode.SendTo(rig.bAddr, data[:wire.CoreHeaderLen+3])
	rig.nw.Loop().Run()
	// Truncated extensions fail Check at ingress → treated as non-DMTP
	// and forwarded by dst; that is the desired fail-open behaviour.
	if rig.sw.Pipeline.Errors != 0 {
		t.Fatalf("pipeline errors %d", rig.sw.Pipeline.Errors)
	}
	if rig.sw.PassedThrough != 1 {
		t.Fatalf("passthrough %d", rig.sw.PassedThrough)
	}
}

func TestBackPressureMonitorReadsRealQueues(t *testing.T) {
	bp := &BackPressureMonitor{HighWater: 2, LowWater: 0, RateHintMbps: 100, Reporter: wire.AddrFrom(9, 9, 9, 9, 9)}
	fwd := NewForwarder()
	nw := netsim.New(2)
	aAddr := wire.AddrFrom(10, 0, 0, 1, 1)
	bAddr := wire.AddrFrom(10, 0, 0, 2, 1)
	sw := NewSwitch(fwd, 0, fwd, bp)
	swNode := nw.AddNode("sw", wire.Addr{}, sw)
	a, b := &netsim.Host{}, &netsim.Host{}
	aNode := nw.AddNode("a", aAddr, a)
	bNode := nw.AddNode("b", bAddr, b)
	nw.Connect(swNode, aNode, netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: time.Microsecond})
	// Slow egress toward b so its queue builds.
	nw.Connect(swNode, bNode, netsim.LinkConfig{RateBps: 10e6, Delay: time.Microsecond, QueueBytes: 1 << 20})
	fwd.Route(aAddr, 0).Route(bAddr, 1)

	var signals int
	a.Recv = func(f *netsim.Frame) {
		if _, err := wire.DecodeBackPressure(f.Data); err == nil {
			signals++
		}
	}
	h := wire.Header{ConfigID: 1, Features: wire.FeatBackPressure}
	h.BackPressure.Sink = aAddr
	pkt, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt = append(pkt, make([]byte, 4000)...)
	for i := 0; i < 50; i++ {
		aNode.SendTo(bAddr, append([]byte(nil), pkt...))
	}
	nw.Loop().Run()
	if signals == 0 {
		t.Fatal("no back-pressure signals despite queue buildup")
	}
	if bp.Signalled == 0 {
		t.Fatal("monitor counted nothing")
	}
}
