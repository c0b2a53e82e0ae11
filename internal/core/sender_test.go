package core

import (
	"testing"
	"time"

	"repro/internal/daq"
	"repro/internal/dmtp"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// senderRig wires sender ── link ── sink and lets tests inject control
// packets back at the sender.
type senderRig struct {
	nw       *netsim.Network
	snd      *Sender
	sink     *netsim.Host
	sinkN    *netsim.Node
	arrivals []time.Duration
}

func newSenderRig(t *testing.T, cfg SenderConfig, rate float64) *senderRig {
	t.Helper()
	r := &senderRig{nw: netsim.New(1), sink: &netsim.Host{}}
	sndAddr := wire.AddrFrom(10, 0, 0, 1, 1)
	dstAddr := wire.AddrFrom(10, 0, 0, 2, 1)
	cfg.Dst = dstAddr
	r.snd = NewSender(r.nw, "snd", sndAddr, cfg)
	r.sinkN = r.nw.AddNode("sink", dstAddr, r.sink)
	r.nw.Connect(r.snd.Node(), r.sinkN, netsim.LinkConfig{RateBps: rate, Delay: time.Microsecond, QueueBytes: 1 << 30})
	r.sink.Recv = func(f *netsim.Frame) {
		r.arrivals = append(r.arrivals, time.Duration(r.nw.Now()))
	}
	return r
}

func (r *senderRig) injectControl(t *testing.T, data []byte) {
	t.Helper()
	r.sinkN.SendTo(r.snd.Node().Addr, data)
}

func TestSenderPacingLimitsRate(t *testing.T) {
	// 100 messages of ~1 KB offered instantly, paced at 8 Mbps → the
	// drain should take ≈ 100 KB × 8 / 8 Mbps ≈ 100 ms.
	rig := newSenderRig(t, SenderConfig{Experiment: 1, Mode: dmtp.ModeBare, RateMbps: 8}, netsim.Gbps(10))
	rig.snd.Stream(daq.NewGeneric(daq.GenericConfig{
		MessageSize: 1000 - daq.HeaderLen, Interval: time.Nanosecond, Count: 100, Seed: 1,
	}))
	rig.nw.Loop().Run()
	if !rig.snd.Done || rig.snd.Stats.Sent != 100 {
		t.Fatalf("sent %d done=%v", rig.snd.Stats.Sent, rig.snd.Done)
	}
	total := rig.arrivals[len(rig.arrivals)-1]
	if total < 60*time.Millisecond || total > 200*time.Millisecond {
		t.Fatalf("paced drain took %v, want ≈100ms", total)
	}
	if rig.snd.Stats.Queued == 0 {
		t.Fatal("pacing never queued")
	}
}

func TestSenderUnpacedFollowsSchedule(t *testing.T) {
	rig := newSenderRig(t, SenderConfig{Experiment: 1, Mode: dmtp.ModeBare}, netsim.Gbps(10))
	rig.snd.Stream(daq.NewGeneric(daq.GenericConfig{
		MessageSize: 100, Interval: time.Millisecond, Count: 10, Seed: 1,
	}))
	rig.nw.Loop().Run()
	if len(rig.arrivals) != 10 {
		t.Fatalf("arrivals %d", len(rig.arrivals))
	}
	for i := 1; i < len(rig.arrivals); i++ {
		gap := rig.arrivals[i] - rig.arrivals[i-1]
		if gap < 900*time.Microsecond || gap > 1100*time.Microsecond {
			t.Fatalf("gap %d: %v", i, gap)
		}
	}
}

func TestSenderBackPressureSlowsAndRecovers(t *testing.T) {
	rig := newSenderRig(t, SenderConfig{Experiment: 1, Mode: dmtp.ModeBare, RecoverInterval: 5 * time.Millisecond}, netsim.Gbps(10))
	// Offer 200 messages over 20 ms; inject a back-pressure signal early.
	rig.snd.Stream(daq.NewGeneric(daq.GenericConfig{
		MessageSize: 1000, Interval: 100 * time.Microsecond, Count: 200, Seed: 1,
	}))
	sig := wire.BackPressureSignal{Experiment: wire.NewExperimentID(1, 0), Level: 200, RateHintMbps: 10, Reporter: wire.AddrFrom(9, 9, 9, 9, 9)}
	data, err := sig.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.nw.Loop().After(time.Millisecond, func() { rig.injectControl(t, data) })
	rig.nw.Loop().Run()

	if rig.snd.Stats.BackPressure != 1 {
		t.Fatalf("signals %d", rig.snd.Stats.BackPressure)
	}
	if rig.snd.Stats.Queued == 0 {
		t.Fatal("back-pressure never queued messages")
	}
	if !rig.snd.Done || len(rig.arrivals) != 200 {
		t.Fatalf("incomplete after recovery: %d arrivals done=%v", len(rig.arrivals), rig.snd.Done)
	}
	// The run must take longer than the unconstrained 20 ms because of
	// the throttled window, but recovery must unthrottle it eventually
	// (10 Mbps for 200×1 KB alone would be 160 ms).
	total := rig.arrivals[len(rig.arrivals)-1]
	if total < 21*time.Millisecond {
		t.Fatalf("throttling invisible: %v", total)
	}
	if total > 160*time.Millisecond {
		t.Fatalf("recovery never happened: %v", total)
	}
}

func TestSenderPauseOnLevel255(t *testing.T) {
	rig := newSenderRig(t, SenderConfig{Experiment: 1, Mode: dmtp.ModeBare, RecoverInterval: 10 * time.Millisecond}, netsim.Gbps(10))
	sig := wire.BackPressureSignal{Level: 255, Reporter: wire.AddrFrom(9, 9, 9, 9, 9)}
	data, err := sig.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.nw.Loop().After(500*time.Microsecond, func() { rig.injectControl(t, data) })
	rig.snd.Stream(daq.NewGeneric(daq.GenericConfig{
		MessageSize: 100, Interval: 100 * time.Microsecond, Count: 50, Seed: 1,
	}))
	rig.nw.Loop().Run()
	if !rig.snd.Done || len(rig.arrivals) != 50 {
		t.Fatalf("pause never released: %d arrivals", len(rig.arrivals))
	}
	// Messages offered during the pause arrive after the recovery step.
	var lateArrivals int
	for _, at := range rig.arrivals {
		if at > 10*time.Millisecond {
			lateArrivals++
		}
	}
	if lateArrivals == 0 {
		t.Fatal("no arrivals deferred past the pause window")
	}
}

func TestSenderCountsDeadlineMisses(t *testing.T) {
	rig := newSenderRig(t, SenderConfig{Experiment: 1, Mode: dmtp.ModeBare}, netsim.Gbps(10))
	note := wire.DeadlineExceeded{Experiment: wire.NewExperimentID(1, 0), Seq: 3, Reporter: wire.AddrFrom(9, 9, 9, 9, 9)}
	data, err := note.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.injectControl(t, data)
	rig.nw.Loop().Run()
	if rig.snd.Stats.DeadlineMiss != 1 {
		t.Fatalf("deadline misses %d", rig.snd.Stats.DeadlineMiss)
	}
}

func TestSenderIgnoresDataAndGarbage(t *testing.T) {
	rig := newSenderRig(t, SenderConfig{Experiment: 1, Mode: dmtp.ModeBare}, netsim.Gbps(10))
	h := wire.Header{ConfigID: 1}
	data, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.injectControl(t, data)         // data packet at a sensor
	rig.injectControl(t, []byte{1, 2}) // garbage
	rig.nw.Loop().Run()
	if rig.snd.Stats.BackPressure != 0 || rig.snd.Stats.DeadlineMiss != 0 {
		t.Fatal("sensor acted on non-control input")
	}
}

func TestSenderEmitPopulatesModeExtensions(t *testing.T) {
	mode := dmtp.Mode{Name: "rich", ConfigID: 6,
		Features: wire.FeatTimestamped | wire.FeatDuplicate | wire.FeatBackPressure | wire.FeatTimely}
	rig := newSenderRig(t, SenderConfig{
		Experiment:     7,
		Mode:           mode,
		DupGroup:       9,
		DupScope:       2,
		DeadlineBudget: 5 * time.Millisecond,
		DeadlineNotify: wire.AddrFrom(9, 9, 9, 9, 9),
	}, netsim.Gbps(10))
	var got wire.View
	rig.sink.Recv = func(f *netsim.Frame) { got = wire.View(f.Data) }
	rig.snd.Emit([]byte("m"), 3)
	rig.nw.Loop().Run()

	if got == nil {
		t.Fatal("nothing delivered")
	}
	if got.Experiment() != wire.NewExperimentID(7, 3) {
		t.Fatalf("experiment %v", got.Experiment())
	}
	if d, _ := got.Dup(); d.Group != 9 || d.Scope != 2 {
		t.Fatalf("dup %+v", d)
	}
	if bp, _ := got.BackPressure(); bp.Sink != rig.snd.Node().Addr {
		t.Fatalf("bp sink %v", bp.Sink)
	}
	deadline, notify, err := got.Deadline()
	if err != nil || deadline != uint64(5*time.Millisecond) || notify != wire.AddrFrom(9, 9, 9, 9, 9) {
		t.Fatalf("deadline %d %v %v", deadline, notify, err)
	}
	if ts, _ := got.OriginTimestamp(); ts != 0 {
		// Emitted at t=0; origin nanos is 0 by construction here.
		t.Fatalf("origin %d", ts)
	}
	if rig.snd.Stats.Sent != 1 {
		t.Fatalf("sent %d, want 1", rig.snd.Stats.Sent)
	}
}
