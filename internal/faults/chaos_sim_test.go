package faults_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daq"
	"repro/internal/dmtp"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// chaosPath wires the minimal recovery topology with a fault plan on the
// WAN leg (the DTN→receiver direction only — NAKs travel back clean):
//
//	sensor ──100G/10µs── DTN1 ──100G/5ms (faulted)── receiver
type chaosPath struct {
	nw       *netsim.Network
	sender   *core.Sender
	dtn1     *core.BufferNode
	receiver *core.Receiver
	plan     *faults.Plan

	seen     map[uint64]int    // delivered sequenced messages, by seq
	contents map[uint64][]byte // first delivered payload bytes, by seq
	gaps     []uint64          // seqs reported permanently lost via OnGap
}

func newChaosPath(t *testing.T, simSeed int64, spec faults.Spec, rcfg core.ReceiverConfig) *chaosPath {
	t.Helper()
	p := &chaosPath{
		nw:       netsim.New(simSeed),
		plan:     faults.New(spec),
		seen:     make(map[uint64]int),
		contents: make(map[uint64][]byte),
	}
	sensorAddr := wire.AddrFrom(10, 0, 0, 1, 4000)
	dtn1Addr := wire.AddrFrom(10, 0, 1, 1, 7000)
	recvAddr := wire.AddrFrom(10, 0, 2, 1, 7000)

	rcfg.Counters = p.plan.Counters()
	rcfg.OnMessage = func(m core.Message) {
		if m.Seq != 0 {
			p.seen[m.Seq]++
			if prev, ok := p.contents[m.Seq]; ok {
				// A duplicate (reorder/retransmit overlap) must carry the
				// same bytes as the original — any divergence means a
				// buffer was corrupted in flight or in the stash.
				if string(prev) != string(m.Payload) {
					t.Errorf("seq %d delivered twice with different bytes", m.Seq)
				}
			} else {
				p.contents[m.Seq] = append([]byte(nil), m.Payload...)
			}
		}
	}
	rcfg.OnGap = func(_ wire.ExperimentID, seq uint64) { p.gaps = append(p.gaps, seq) }
	p.receiver = core.NewReceiver(p.nw, "recv", recvAddr, rcfg)

	p.dtn1 = core.NewBufferNode(p.nw, "dtn1", dtn1Addr, core.BufferConfig{
		Upgrade:     dmtp.ModeWAN,
		Forward:     recvAddr,
		ForwardPort: 1,
		MaxAge:      time.Second,
		Routes:      map[wire.Addr]int{sensorAddr: 0},
	})
	p.sender = core.NewSender(p.nw, "sensor", sensorAddr, core.SenderConfig{
		Experiment: 42,
		Dst:        dtn1Addr,
		Mode:       dmtp.ModeBare,
	})

	p.nw.Connect(p.sender.Node(), p.dtn1.Node(),
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 10 * time.Microsecond})
	p.nw.ConnectAsym(p.dtn1.Node(), p.receiver.Node(),
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 5 * time.Millisecond, Fault: faults.SimFault(p.plan)},
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 5 * time.Millisecond})
	return p
}

func (p *chaosPath) stream(count uint64, seed int64) {
	p.sender.Stream(daq.NewGeneric(daq.GenericConfig{
		MessageSize: 1000, Interval: 50 * time.Microsecond, Count: count, Seed: seed,
	}))
	p.nw.Loop().Run()
}

// recoveryConfig tunes NAKs so that a 10 ms buffer RTT is covered and the
// backoff cap is exercised.
func recoveryConfig() core.ReceiverConfig {
	return core.ReceiverConfig{
		NAKDelay:    200 * time.Microsecond,
		NAKRetry:    15 * time.Millisecond, // > 10 ms buffer RTT
		NAKRetryMax: 60 * time.Millisecond,
		MaxNAKs:     10,
	}
}

// TestSimChaosRelayRestartUnderBurstLoss is the acceptance scenario on the
// simulated substrate: 10% Gilbert burst loss on the WAN leg, a buffer-node
// crash/restart between two phases, and still 100% distinct-message
// delivery — phase-1 losses recover before the crash empties the buffer,
// phase-2 losses recover from the warm post-restart buffer.
func TestSimChaosRelayRestartUnderBurstLoss(t *testing.T) {
	p := newChaosPath(t, 1,
		faults.Spec{Seed: 11, BurstLoss: 0.10, MeanBurstLen: 3},
		recoveryConfig())

	p.stream(200, 5) // phase 1 drains fully: Loop.Run returns at quiescence
	if len(p.seen) != 200 {
		t.Fatalf("phase 1 delivered %d/200 distinct", len(p.seen))
	}
	if p.receiver.Stats.Lost != 0 {
		t.Fatalf("phase 1 permanent losses: %+v", p.receiver.Stats)
	}

	p.dtn1.Crash()
	if !p.dtn1.IsDown() || p.dtn1.BufferedBytes() != 0 {
		t.Fatalf("crash did not cold the buffer: down=%v bytes=%d",
			p.dtn1.IsDown(), p.dtn1.BufferedBytes())
	}
	p.dtn1.Restart()

	p.stream(200, 6) // phase 2 under the same ongoing fault plan
	if len(p.seen) != 400 {
		t.Fatalf("delivered %d/400 distinct after restart", len(p.seen))
	}
	for seq, n := range p.seen {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times", seq, n)
		}
	}
	st := p.receiver.Stats
	if st.Lost != 0 || len(p.gaps) != 0 {
		t.Fatalf("permanent losses despite warm buffer: %+v gaps=%v", st, p.gaps)
	}
	if st.Recovered == 0 {
		t.Fatalf("no recoveries under 10%% loss: %+v", st)
	}
	if p.dtn1.Stats().Crashes != 1 {
		t.Fatalf("crashes %d", p.dtn1.Stats().Crashes)
	}
	c := p.plan.Counters()
	if c.Get(faults.CounterDropBurst) == 0 {
		t.Fatalf("no burst drops recorded: %s", c)
	}
	if c.Get(telemetry.CounterRecovered) != st.Recovered {
		t.Fatalf("counter %d != stats %d", c.Get(telemetry.CounterRecovered), st.Recovered)
	}
}

// TestSimChaosByteIdentityThroughPooledPath is the pool-aliasing guard on
// the simulated substrate: under the same seeds as the restart scenario —
// burst loss forcing NAK recovery, plus a crash that releases every stash
// buffer back to the pool so phase 2 runs entirely on recycled memory —
// every delivered payload must be byte-for-byte identical to what the
// instrument emitted. The generic source is deterministic (fixed seeded
// payload, per-record header), so the expectation is regenerated from an
// identically configured source rather than recorded.
func TestSimChaosByteIdentityThroughPooledPath(t *testing.T) {
	p := newChaosPath(t, 1,
		faults.Spec{Seed: 11, BurstLoss: 0.10, MeanBurstLen: 3},
		recoveryConfig())
	p.stream(200, 5)
	p.dtn1.Crash()
	p.dtn1.Restart()
	p.stream(200, 6)

	if len(p.seen) != 400 {
		t.Fatalf("delivered %d/400 distinct", len(p.seen))
	}
	if p.receiver.Stats.Recovered == 0 {
		t.Fatalf("no recoveries — the stash path was never exercised: %+v", p.receiver.Stats)
	}
	// The sensor→DTN leg is clean and FIFO, so the DTN's sequencer numbers
	// records in emission order: record i of a phase carries seq base+i+1.
	expectPhase := func(count uint64, seed int64, base uint64) {
		src := daq.NewGeneric(daq.GenericConfig{
			MessageSize: 1000, Interval: 50 * time.Microsecond, Count: count, Seed: seed,
		})
		for i := uint64(0); ; i++ {
			rec, ok := src.Next()
			if !ok {
				break
			}
			seq := base + i + 1
			got, delivered := p.contents[seq]
			if !delivered {
				t.Fatalf("seq %d never delivered", seq)
			}
			if !bytes.Equal(got, rec.Data) {
				t.Fatalf("seq %d bytes diverge from source record %d (len %d vs %d)",
					seq, i, len(got), len(rec.Data))
			}
		}
	}
	expectPhase(200, 5, 0)
	expectPhase(200, 6, 200)
}

// TestSimChaosSameSeedReproducesRun asserts the acceptance clause "same
// seed → same fault schedule → reproducible failure": two fresh builds of
// the whole scenario produce byte-identical stats and fault counters.
func TestSimChaosSameSeedReproducesRun(t *testing.T) {
	run := func() (core.ReceiverStats, map[string]uint64, int) {
		p := newChaosPath(t, 1,
			faults.Spec{Seed: 11, BurstLoss: 0.10, MeanBurstLen: 3},
			recoveryConfig())
		p.stream(200, 5)
		p.dtn1.Crash()
		p.dtn1.Restart()
		p.stream(200, 6)
		return p.receiver.Stats, p.plan.Counters().Snapshot(), len(p.seen)
	}
	st1, c1, n1 := run()
	st2, c2, n2 := run()
	if st1 != st2 {
		t.Fatalf("receiver stats diverged:\n%+v\n%+v", st1, st2)
	}
	if n1 != n2 {
		t.Fatalf("distinct deliveries diverged: %d vs %d", n1, n2)
	}
	if len(c1) != len(c2) {
		t.Fatalf("counters diverged: %v vs %v", c1, c2)
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("counter %s diverged: %d vs %d", k, v, c2[k])
		}
	}
}

// TestSimChaosMidFlowCrashDegradesGracefully crashes the buffer node while
// losses are still unrecovered: the retransmission state is gone, so the
// receiver must write those gaps off (bounded NAKs), advance its floor, keep
// delivering around the holes, and report every hole via OnGap.
func TestSimChaosMidFlowCrashDegradesGracefully(t *testing.T) {
	rcfg := core.ReceiverConfig{
		NAKDelay:    200 * time.Microsecond,
		NAKRetry:    15 * time.Millisecond,
		NAKRetryMax: 30 * time.Millisecond,
		MaxNAKs:     3,
	}
	p := newChaosPath(t, 2, faults.Spec{Seed: 21, BurstLoss: 0.10, MeanBurstLen: 3}, rcfg)

	// Crash 5 ms in — early gaps are detected (one-way 5 ms) but no
	// recovery completes (buffer RTT 10 ms + 15 ms retry) — and restart
	// 3 ms later, mid-stream.
	p.nw.Loop().At(sim.Time(5*time.Millisecond), p.dtn1.Crash)
	p.nw.Loop().At(sim.Time(8*time.Millisecond), p.dtn1.Restart)
	p.stream(400, 5)

	st := p.receiver.Stats
	if st.Lost == 0 {
		t.Fatalf("expected permanent losses from the cold buffer: %+v", st)
	}
	if p.receiver.OutstandingGaps() != 0 {
		t.Fatalf("%d gaps still pending at quiescence", p.receiver.OutstandingGaps())
	}
	if uint64(len(p.gaps)) != st.Lost {
		t.Fatalf("OnGap reported %d holes, stats say %d", len(p.gaps), st.Lost)
	}
	if p.dtn1.Stats().DroppedDown == 0 {
		t.Fatalf("no frames hit the crashed node: %+v", p.dtn1.Stats())
	}
	// Every sequenced packet is accounted for: delivered or written off.
	var maxSeq uint64
	for seq := range p.seen {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	if uint64(len(p.seen))+st.Lost != maxSeq {
		t.Fatalf("delivered %d + lost %d != maxSeq %d", len(p.seen), st.Lost, maxSeq)
	}
	if got := p.plan.Counters().Get(telemetry.CounterPermanentLoss); got != st.Lost {
		t.Fatalf("permanent-loss counter %d != stats %d", got, st.Lost)
	}
}

// TestSimChaosReorderWindow injects 3-packet-scale reordering (2 ms extra
// delay ≈ 40 packets at the 50 µs emission interval is too coarse; the
// assertion is on behaviour, not magnitude): a NAK delay above the reorder
// delay absorbs every reordering without spurious recovery traffic.
func TestSimChaosReorderWindow(t *testing.T) {
	p := newChaosPath(t, 3,
		faults.Spec{Seed: 31, ReorderProb: 0.10, ReorderDelay: 2 * time.Millisecond},
		core.ReceiverConfig{
			NAKDelay: 4 * time.Millisecond, // > reorder delay: tolerate, don't NAK
			NAKRetry: 15 * time.Millisecond,
			MaxNAKs:  10,
		})
	p.stream(300, 5)

	if len(p.seen) != 300 {
		t.Fatalf("delivered %d/300 distinct", len(p.seen))
	}
	st := p.receiver.Stats
	if st.NAKsSent != 0 || st.Recovered != 0 {
		t.Fatalf("reordering triggered recovery traffic: %+v", st)
	}
	if st.Lost != 0 || st.Duplicates != 0 {
		t.Fatalf("stats %+v", st)
	}
	if got := p.plan.Counters().Get(faults.CounterReorder); got == 0 {
		t.Fatal("no reorders injected")
	}
	if p.dtn1.Node().Ports[1].Stats.FaultDelayed == 0 {
		t.Fatal("link recorded no fault delays")
	}
}

// TestSimChaosDuplicationIsAbsorbed injects duplicates; the receiver's
// seq-tracking must count and discard them without double delivery.
func TestSimChaosDuplicationIsAbsorbed(t *testing.T) {
	p := newChaosPath(t, 4, faults.Spec{Seed: 41, DupProb: 0.15}, recoveryConfig())
	p.stream(300, 5)

	if len(p.seen) != 300 {
		t.Fatalf("delivered %d/300 distinct", len(p.seen))
	}
	for seq, n := range p.seen {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times", seq, n)
		}
	}
	st := p.receiver.Stats
	if st.Duplicates == 0 {
		t.Fatalf("no duplicates observed: %+v", st)
	}
	if got := p.plan.Counters().Get(faults.CounterDuplicate); got != st.Duplicates {
		t.Fatalf("injected %d dups, receiver saw %d", got, st.Duplicates)
	}
}

// TestSimChaosCorruptionRecovered flips bits in flight. Corrupted frames
// that fail the header check vanish silently — exactly like loss — and NAK
// recovery restores them from the buffer's clean copy; flips that land in
// the payload are delivered (DMTP has no payload checksum; integrity is the
// application's concern, per the paper's separation of mechanism).
func TestSimChaosCorruptionRecovered(t *testing.T) {
	p := newChaosPath(t, 5, faults.Spec{Seed: 51, CorruptProb: 0.05}, recoveryConfig())
	p.stream(300, 5)

	if len(p.seen) != 300 {
		t.Fatalf("delivered %d/300 distinct", len(p.seen))
	}
	if p.receiver.Stats.Lost != 0 {
		t.Fatalf("permanent losses: %+v", p.receiver.Stats)
	}
	if got := p.plan.Counters().Get(faults.CounterCorrupt); got == 0 {
		t.Fatal("no corruption injected")
	}
	if p.dtn1.Node().Ports[1].Stats.FaultCorrupted == 0 {
		t.Fatal("link recorded no fault corruptions")
	}
}

// TestSimChaosScriptedFlap drops everything inside a scripted link-down
// window at exact virtual times; recovery refills the hole afterwards.
func TestSimChaosScriptedFlap(t *testing.T) {
	p := newChaosPath(t, 6, faults.Spec{
		Seed:  61,
		Flaps: []faults.Flap{{Start: 3 * time.Millisecond, Len: 2 * time.Millisecond}},
	}, recoveryConfig())
	p.stream(300, 5)

	if len(p.seen) != 300 {
		t.Fatalf("delivered %d/300 distinct", len(p.seen))
	}
	st := p.receiver.Stats
	if st.Lost != 0 {
		t.Fatalf("permanent losses: %+v", st)
	}
	if st.Recovered == 0 {
		t.Fatalf("flap caused no recoveries: %+v", st)
	}
	flapDrops := p.plan.Counters().Get(faults.CounterDropFlap)
	if flapDrops == 0 {
		t.Fatal("no flap drops recorded")
	}
	// ~2 ms of a 50 µs-interval stream ≈ 40 packets in the window.
	if flapDrops < 20 || flapDrops > 60 {
		t.Fatalf("flap drops %d, want ≈40", flapDrops)
	}
	if p.dtn1.Node().Ports[1].Stats.DropsFault != flapDrops {
		t.Fatalf("port fault drops %d != plan %d", p.dtn1.Node().Ports[1].Stats.DropsFault, flapDrops)
	}
}
