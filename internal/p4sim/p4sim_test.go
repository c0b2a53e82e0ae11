package p4sim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

func dataPacket(t *testing.T, h wire.Header, payload string) wire.View {
	t.Helper()
	b, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire.View(append(b, payload...))
}

func runOne(t *testing.T, p *Pipeline, pkt wire.View, meta *Meta) wire.View {
	t.Helper()
	out, err := p.Run(pkt, meta)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return out
}

func TestRegisterArray(t *testing.T) {
	ctx := NewContext(nil)
	r := ctx.Register("r", 8)
	if r.Read(3) != 0 {
		t.Fatal("fresh register nonzero")
	}
	r.Write(3, 5)
	if r.Read(3) != 5 {
		t.Fatalf("read %d", r.Read(3))
	}
	// Indexing wraps modulo size, like hash indexing on hardware.
	if r.Read(11) != 5 {
		t.Fatal("modulo indexing broken")
	}
	r.Write(0, 9)
	if r.Read(8) != 9 {
		t.Fatal("modulo write broken")
	}
	if ctx.Register("r", 8) != r {
		t.Fatal("register identity lost")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("size mismatch accepted")
			}
		}()
		ctx.Register("r", 16)
	}()
}

func TestAgeTrackerStaticDelta(t *testing.T) {
	at := &AgeTracker{PortDeltaMicros: map[int]uint32{WildcardPort: 100, 2: 700}}
	p := NewPipeline(NewContext(nil), at)
	h := wire.Header{ConfigID: 1, Features: wire.FeatAgeTracked}
	h.Age.MaxAgeMicros = 750
	pkt := dataPacket(t, h, "")
	runOne(t, p, pkt, &Meta{IngressPort: 0, EgressPort: -1})
	age, _ := pkt.Age()
	if age.AgeMicros != 100 || age.Aged() {
		t.Fatalf("age %+v", age)
	}
	runOne(t, p, pkt, &Meta{IngressPort: 2, EgressPort: -1})
	age, _ = pkt.Age()
	if age.AgeMicros != 800 || !age.Aged() {
		t.Fatalf("age after port-2 hop %+v", age)
	}
	if at.AgedSeen != 1 {
		t.Fatalf("aged seen %d", at.AgedSeen)
	}
}

func TestAgeTrackerUsesOriginTimestamp(t *testing.T) {
	at := &AgeTracker{PortDeltaMicros: map[int]uint32{WildcardPort: 1}}
	p := NewPipeline(NewContext(nil), at)
	h := wire.Header{ConfigID: 1, Features: wire.FeatAgeTracked | wire.FeatTimestamped}
	h.Timestamp.OriginNanos = uint64(time.Millisecond)
	h.Age.MaxAgeMicros = 100_000
	pkt := dataPacket(t, h, "")
	runOne(t, p, pkt, &Meta{Now: sim.Time(4 * time.Millisecond), EgressPort: -1})
	age, _ := pkt.Age()
	if age.AgeMicros != 3000 {
		t.Fatalf("age %d µs, want 3000", age.AgeMicros)
	}
	// A later element computes from the same origin: age is absolute, not
	// double-counted.
	runOne(t, p, pkt, &Meta{Now: sim.Time(5 * time.Millisecond), EgressPort: -1})
	age, _ = pkt.Age()
	if age.AgeMicros != 4000 {
		t.Fatalf("age %d µs, want 4000", age.AgeMicros)
	}
}

func TestDeadlineMarkerNotifiesAndSuppresses(t *testing.T) {
	dm := &DeadlineMarker{Reporter: wire.AddrFrom(1, 1, 1, 1, 1), SuppressWindow: time.Second}
	p := NewPipeline(NewContext(nil), dm)
	notify := wire.AddrFrom(10, 0, 0, 9, 9)
	mk := func() wire.View {
		h := wire.Header{ConfigID: 1, Features: wire.FeatTimely, Experiment: wire.NewExperimentID(4, 0)}
		h.Deadline.DeadlineNanos = uint64(time.Millisecond)
		h.Deadline.Notify = notify
		return dataPacket(t, h, "")
	}
	meta := &Meta{Now: sim.Time(2 * time.Millisecond), EgressPort: -1}
	runOne(t, p, mk(), meta)
	if len(meta.Mints) != 1 {
		t.Fatalf("mints %d", len(meta.Mints))
	}
	note, err := wire.DecodeDeadlineExceeded(meta.Mints[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if note.DeadlineNanos != uint64(time.Millisecond) || note.ObservedNanos != uint64(2*time.Millisecond) {
		t.Fatalf("note %+v", note)
	}
	if meta.Mints[0].Dst != notify {
		t.Fatal("wrong notify dst")
	}
	// Second late packet within the window: counted but not notified.
	meta2 := &Meta{Now: sim.Time(3 * time.Millisecond), EgressPort: -1}
	runOne(t, p, mk(), meta2)
	if len(meta2.Mints) != 0 {
		t.Fatal("suppression failed")
	}
	if dm.Exceeded != 2 || dm.Notified != 1 {
		t.Fatalf("exceeded=%d notified=%d", dm.Exceeded, dm.Notified)
	}
	// After the window, notify again.
	meta3 := &Meta{Now: sim.Time(1100 * time.Millisecond), EgressPort: -1}
	runOne(t, p, mk(), meta3)
	if len(meta3.Mints) != 1 {
		t.Fatal("window expiry ignored")
	}
}

func TestDeadlineMarkerOnTimePacketUntouched(t *testing.T) {
	dm := &DeadlineMarker{}
	p := NewPipeline(NewContext(nil), dm)
	h := wire.Header{ConfigID: 1, Features: wire.FeatTimely}
	h.Deadline.DeadlineNanos = uint64(time.Second)
	pkt := dataPacket(t, h, "")
	meta := &Meta{Now: sim.Time(time.Millisecond), EgressPort: -1}
	runOne(t, p, pkt, meta)
	if len(meta.Mints) != 0 || dm.Exceeded != 0 {
		t.Fatal("on-time packet flagged")
	}
}

func TestDeadlineMarkerDropExpired(t *testing.T) {
	dm := &DeadlineMarker{DropExpired: true}
	p := NewPipeline(NewContext(nil), dm)
	h := wire.Header{ConfigID: 1, Features: wire.FeatTimely}
	h.Deadline.DeadlineNanos = 1
	pkt := dataPacket(t, h, "")
	meta := &Meta{Now: sim.Time(time.Second), EgressPort: -1}
	runOne(t, p, pkt, meta)
	if !meta.Drop {
		t.Fatal("expired packet not dropped")
	}
}

func TestDuplicatorFansOutAndDecrementsScope(t *testing.T) {
	d := NewDuplicator()
	d.Group(9,
		Copy{Port: 2, Dst: wire.AddrFrom(10, 0, 2, 2, 2)},
		Copy{Port: 3, Dst: wire.AddrFrom(10, 0, 3, 3, 3)},
	)
	p := NewPipeline(NewContext(nil), d)
	h := wire.Header{ConfigID: 1, Features: wire.FeatDuplicate}
	h.Dup.Group, h.Dup.Scope = 9, 2
	pkt := dataPacket(t, h, "alert")
	meta := &Meta{EgressPort: -1}
	runOne(t, p, pkt, meta)
	if len(meta.Copies) != 2 {
		t.Fatalf("copies %d", len(meta.Copies))
	}
	for _, cp := range meta.Copies {
		got, _ := cp.Pkt.Dup()
		if got.Scope != 1 {
			t.Fatalf("copy scope %d", got.Scope)
		}
		if string(cp.Pkt.Payload()) != "alert" {
			t.Fatal("copy payload lost")
		}
	}
	// Original packet keeps its scope.
	if dup, _ := pkt.Dup(); dup.Scope != 2 {
		t.Fatalf("original scope %d", dup.Scope)
	}
	// Scope 0 stops duplication.
	h.Dup.Scope = 0
	pkt0 := dataPacket(t, h, "")
	meta0 := &Meta{EgressPort: -1}
	runOne(t, p, pkt0, meta0)
	if len(meta0.Copies) != 0 {
		t.Fatal("scope 0 duplicated")
	}
}

func TestBackPressureMonitorSignals(t *testing.T) {
	depth := 0
	ctx := NewContext(func(port int) int { return depth })
	bp := &BackPressureMonitor{HighWater: 10, LowWater: 2, RateHintMbps: 500, Reporter: wire.AddrFrom(2, 2, 2, 2, 2)}
	p := NewPipeline(ctx, bp)
	sink := wire.AddrFrom(10, 0, 0, 1, 5)
	mk := func() wire.View {
		h := wire.Header{ConfigID: 1, Features: wire.FeatBackPressure, Experiment: wire.NewExperimentID(3, 0)}
		h.BackPressure.Sink = sink
		return dataPacket(t, h, "")
	}
	// Below low water: nothing.
	depth = 1
	meta := &Meta{EgressPort: 0}
	pkt := mk()
	runOne(t, p, pkt, meta)
	if len(meta.Mints) != 0 {
		t.Fatal("signalled below low water")
	}
	// Above high water: level set and signal minted.
	depth = 50
	meta2 := &Meta{EgressPort: 0}
	pkt2 := mk()
	runOne(t, p, pkt2, meta2)
	ext, _ := pkt2.BackPressure()
	if ext.Level == 0 {
		t.Fatal("level not written")
	}
	if len(meta2.Mints) != 1 {
		t.Fatalf("mints %d", len(meta2.Mints))
	}
	sig, err := wire.DecodeBackPressure(meta2.Mints[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if sig.RateHintMbps != 500 || meta2.Mints[0].Dst != sink {
		t.Fatalf("signal %+v to %v", sig, meta2.Mints[0].Dst)
	}
}

func TestForwarderRoutesAndDrops(t *testing.T) {
	fwd := NewForwarder().Route(wire.AddrFrom(1, 1, 1, 1, 1), 3)
	p := NewPipeline(NewContext(nil), fwd)
	pkt := dataPacket(t, wire.Header{ConfigID: 1}, "")
	meta := &Meta{Dst: wire.AddrFrom(1, 1, 1, 1, 1), EgressPort: -1}
	runOne(t, p, pkt, meta)
	if meta.EgressPort != 3 {
		t.Fatalf("egress %d", meta.EgressPort)
	}
	meta2 := &Meta{Dst: wire.AddrFrom(9, 9, 9, 9, 9), EgressPort: -1}
	pkt2 := dataPacket(t, wire.Header{ConfigID: 1}, "")
	runOne(t, p, pkt2, meta2)
	if !meta2.Drop || fwd.NoRoute != 1 {
		t.Fatal("unroutable packet not dropped")
	}
	fwd.SetDefault(7)
	meta3 := &Meta{Dst: wire.AddrFrom(9, 9, 9, 9, 9), EgressPort: -1}
	pkt3 := dataPacket(t, wire.Header{ConfigID: 1}, "")
	runOne(t, p, pkt3, meta3)
	if meta3.EgressPort != 7 {
		t.Fatal("default route ignored")
	}
}

func TestExperimentCounter(t *testing.T) {
	ctx := NewContext(nil)
	p := NewPipeline(ctx, ExperimentCounter{})
	pkt := dataPacket(t, wire.Header{ConfigID: 1, Experiment: wire.NewExperimentID(6, 2)}, "xyz")
	runOne(t, p, pkt, &Meta{EgressPort: -1})
	if c := ctx.Counter("exp/6"); c.Packets != 1 || c.Bytes != uint64(len(pkt)) {
		t.Fatalf("counter %+v", c)
	}
	if c := ctx.Counter("exp/6/slice/2"); c.Packets != 1 {
		t.Fatal("slice counter missing")
	}
}

func TestPipelineErrorDropsPacket(t *testing.T) {
	// An age tracker applied to a packet claiming FeatAgeTracked but
	// truncated before the extension bytes triggers a stage error.
	at := &AgeTracker{PortDeltaMicros: map[int]uint32{WildcardPort: 100}}
	p := NewPipeline(NewContext(nil), at)
	pkt := dataPacket(t, wire.Header{ConfigID: 1, Features: wire.FeatAgeTracked}, "")
	pkt = pkt[:wire.CoreHeaderLen+2] // truncate the age extension
	meta := &Meta{EgressPort: -1}
	if _, err := p.Run(pkt, meta); err == nil {
		t.Fatal("expected error")
	}
	if !meta.Drop || p.Errors != 1 {
		t.Fatal("error did not drop packet")
	}
}
