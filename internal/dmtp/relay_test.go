package dmtp

// RelayEngine tests: the flow table, the upgrade recipe and the journal
// lifecycle driven directly — FakeClock, a recording datapath, no sockets
// and no simulator — so both substrate adapters inherit one tested
// behaviour.

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// testDst is the adapter-typed flow destination of the test rig.
type testDst string

func (d testDst) String() string { return string(d) }

type emitted struct {
	dst testDst
	seq uint64 // zero for pass-through packets without a sequence field
}

// relayRig is a RelayEngine over a fake clock with every callback
// recorded. log interleaves "emit" and the datapath's "rtx" — everything
// the engine calls on its adapter per packet besides the buffer hooks.
type relayRig struct {
	t     *testing.T
	cfg   RelayConfig[testDst]
	eng   *RelayEngine[testDst]
	clock *FakeClock
	dp    *recDatapath
	route map[wire.ExperimentID]testDst // Resolve's answer per experiment
	out   []emitted
	log   []string
	// allocated lists every buffer Alloc handed out, by its first byte;
	// released counts Buffer.Release calls per buffer.
	allocated []*byte
	released  map[*byte]int
}

var (
	rigSrcA = wire.AddrFrom(10, 0, 0, 1, 4000)
	rigSrcB = wire.AddrFrom(10, 0, 0, 2, 4000)
	rigSelf = wire.AddrFrom(10, 0, 1, 1, 7000)
	rigReq  = wire.AddrFrom(10, 0, 2, 1, 7000)
	expA    = wire.NewExperimentID(701, 0)
	expB    = wire.NewExperimentID(703, 0) // not on expA's shard when there are two
)

const rigStart = int64(time.Hour)

func newRelayRig(t *testing.T, mutate func(*RelayConfig[testDst])) *relayRig {
	t.Helper()
	r := &relayRig{
		t:     t,
		clock: NewFakeClock(rigStart),
		dp:    &recDatapath{},
		route: map[wire.ExperimentID]testDst{expA: "rx-a", expB: "rx-b"},

		released: map[*byte]int{},
	}
	r.cfg = RelayConfig[testDst]{
		Buffer:   BufferConfig{Clock: r.clock, Release: func(b []byte) { r.released[&b[0]]++ }},
		Datapath: r,
		Alloc: func(n int) []byte {
			b := make([]byte, n)
			r.allocated = append(r.allocated, &b[0])
			return b
		},
		Resolve: func(_ wire.Addr, exp wire.ExperimentID) testDst { return r.route[exp] },
		Mode:    Mode{ConfigID: 1, Features: wire.FeatSequenced | wire.FeatReliable | wire.FeatTimestamped},
		Emit: func(f *Flow[testDst], pkt []byte) {
			seq, _ := wire.View(pkt).Seq()
			r.out = append(r.out, emitted{f.Dst, seq})
			r.log = append(r.log, "emit")
			f.Sent(1)
		},
	}
	if mutate != nil {
		mutate(&r.cfg)
	}
	r.eng = r.open()
	t.Cleanup(func() { r.eng.Close() })
	return r
}

// open builds a fresh engine from the rig's config — the "new process on
// the same journal directory" step.
func (r *relayRig) open() *RelayEngine[testDst] {
	r.t.Helper()
	eng, err := NewRelayEngine(r.cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	eng.SetSelf(rigSelf)
	return eng
}

func (r *relayRig) SendControl(dst wire.Addr, pkt []byte) { r.dp.SendControl(dst, pkt) }
func (r *relayRig) SendData(dst wire.Addr, pkt []byte) {
	r.log = append(r.log, "rtx")
	r.dp.SendData(dst, pkt)
}

// ingest hands one mode-0 data packet of (src, exp) to the engine.
func (r *relayRig) ingest(src wire.Addr, exp wire.ExperimentID) {
	r.t.Helper()
	enc, err := (&wire.Header{Experiment: exp}).AppendTo(nil)
	if err != nil {
		r.t.Fatal(err)
	}
	r.handle(src, append(enc, "payload"...))
}

func (r *relayRig) nak(exp wire.ExperimentID, from, to uint64) {
	r.t.Helper()
	n := wire.NAK{Experiment: exp, Requester: rigReq, Ranges: []wire.SeqRange{{From: from, To: to}}}
	enc, err := n.AppendTo(nil)
	if err != nil {
		r.t.Fatal(err)
	}
	r.handle(rigReq, enc)
}

func (r *relayRig) ack(exp wire.ExperimentID, cum uint64) {
	r.t.Helper()
	enc, err := (&wire.Ack{Experiment: exp, CumulativeSeq: cum, Acker: rigReq}).AppendTo(nil)
	if err != nil {
		r.t.Fatal(err)
	}
	r.handle(rigReq, enc)
}

func (r *relayRig) handle(src wire.Addr, pkt []byte) {
	r.t.Helper()
	v := wire.View(pkt)
	if _, err := v.Check(); err != nil {
		r.t.Fatal(err)
	}
	r.eng.Handle(src, v, r.clock.Now())
}

func (r *relayRig) wantFlows(want FlowStats) {
	r.t.Helper()
	if got := r.eng.FlowStats(); got != want {
		r.t.Fatalf("flow stats %+v, want %+v", got, want)
	}
}

func (r *relayRig) wantOut(want ...emitted) {
	r.t.Helper()
	if !slices.Equal(r.out, want) {
		r.t.Fatalf("emitted %+v, want %+v", r.out, want)
	}
}

func TestRelayEngine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*RelayConfig[testDst])
		run    func(t *testing.T, r *relayRig)
	}{
		{
			name: "first packet registers the flow and upgrades",
			run: func(t *testing.T, r *relayRig) {
				r.ingest(rigSrcA, expA)
				r.ingest(rigSrcA, expA)
				r.ingest(rigSrcB, expA) // same experiment, other source: its own flow
				r.wantFlows(FlowStats{Active: 2, Opened: 2})
				r.wantOut(emitted{"rx-a", 1}, emitted{"rx-a", 2}, emitted{"rx-a", 3})
				flows := r.eng.Flows()
				if len(flows) != 2 || flows[0].Src != rigSrcA || flows[0].Upgraded != 2 ||
					flows[0].Forwarded != 2 || flows[0].Dst != "rx-a" || flows[1].Upgraded != 1 {
					t.Fatalf("flows %+v", flows)
				}
				st := r.eng.Stats()
				if st.Upgraded != 3 || st.Forwarded != 3 || st.Buffered != 3 || st.Occupancy == 0 {
					t.Fatalf("stats %+v", st)
				}
				// The stash holds the packet as stamped: retransmission
				// pointer at the relay, origin timestamp from the clock.
				r.nak(expA, 2, 2)
				if len(r.dp.data) != 1 {
					t.Fatalf("NAK served %d packets, want 1", len(r.dp.data))
				}
				up := wire.View(r.dp.data[0])
				if buf, _ := up.RetransmitBuffer(); buf != rigSelf {
					t.Fatalf("retransmit buffer %v, want %v", buf, rigSelf)
				}
				if ts, _ := up.OriginTimestamp(); ts != uint64(rigStart) {
					t.Fatalf("origin timestamp %d, want %d", ts, rigStart)
				}
			},
		},
		{
			name:   "a MaxFlows refusal registers once the table has room",
			mutate: func(c *RelayConfig[testDst]) { c.MaxFlows = 1 },
			run: func(t *testing.T, r *relayRig) {
				r.ingest(rigSrcA, expA)
				r.ingest(rigSrcA, expB) // table full: refused, nothing remembered
				r.wantFlows(FlowStats{Active: 1, Opened: 1, Rejected: 1})
				// Past the TTL the sweep frees the slot, and expB's next
				// packet registers the flow and takes its first sequence.
				r.clock.Advance(flowTTL)
				r.eng.Sweep(r.clock.Now())
				r.ingest(rigSrcA, expB)
				r.wantFlows(FlowStats{Active: 1, Opened: 2, Expired: 1, Rejected: 1})
				r.wantOut(emitted{"rx-a", 1}, emitted{"rx-b", 1})
			},
		},
		{
			name:   "MaxFlows rejection consumes no sequence number",
			mutate: func(c *RelayConfig[testDst]) { c.MaxFlows = 1; c.Shards = 2 },
			run: func(t *testing.T, r *relayRig) {
				r.ingest(rigSrcA, expA)
				r.ingest(rigSrcA, expB)
				r.ingest(rigSrcA, expA)
				r.wantFlows(FlowStats{Active: 1, Opened: 1, Rejected: 1})
				r.wantOut(emitted{"rx-a", 1}, emitted{"rx-a", 2})
				if seq := r.eng.Buffer().SeqOf(expB); seq != 0 {
					t.Fatalf("rejected flow consumed sequence %d", seq)
				}
			},
		},
		{
			name: "idle expiry exactly at the TTL boundary",
			run: func(t *testing.T, r *relayRig) {
				r.ingest(rigSrcA, expA) // idle == TTL at the sweep: expires
				r.clock.Advance(1)
				r.ingest(rigSrcA, expB) // idle == TTL − 1ns: survives
				r.clock.Advance(flowTTL/2 - 2)
				r.eng.Sweep(r.clock.Now()) // not yet half a TTL since construction
				r.wantFlows(FlowStats{Active: 2, Opened: 2})
				r.clock.AdvanceTo(rigStart + int64(flowTTL))
				r.eng.Sweep(r.clock.Now())
				r.wantFlows(FlowStats{Active: 1, Opened: 2, Expired: 1})
				if flows := r.eng.Flows(); len(flows) != 1 || flows[0].Experiment != expB ||
					flows[0].IdleNs != int64(flowTTL)-1 {
					t.Fatalf("surviving flows %+v", flows)
				}
				// The expired flow re-registers (and re-resolves) on its next
				// packet; its sequence numbering carries on.
				r.ingest(rigSrcA, expA)
				r.wantFlows(FlowStats{Active: 2, Opened: 3, Expired: 1})
				r.wantOut(emitted{"rx-a", 1}, emitted{"rx-b", 1}, emitted{"rx-a", 2})
			},
		},
		{
			name: "an expired flow leaves the flow index with the table",
			run: func(t *testing.T, r *relayRig) {
				// expC shares expA's index slot.
				expC := wire.NewExperimentID(900, 0)
				for flowSlot(rigSrcA, expC) != flowSlot(rigSrcA, expA) {
					expC++
				}
				r.route[expC] = "rx-c"
				r.ingest(rigSrcA, expA)
				r.clock.Advance(flowTTL)
				r.eng.Sweep(r.clock.Now())
				r.wantFlows(FlowStats{Opened: 1, Expired: 1})
				// The same key comes back re-registered and re-resolved; a
				// new key in the slot gets its own destination and run.
				r.route[expA] = "rx-a2"
				r.ingest(rigSrcA, expA)
				r.ingest(rigSrcA, expC)
				r.ingest(rigSrcA, expA)
				r.wantFlows(FlowStats{Active: 2, Opened: 3, Expired: 1})
				r.wantOut(emitted{"rx-a", 1}, emitted{"rx-a2", 2}, emitted{"rx-c", 1}, emitted{"rx-a2", 3})
			},
		},
		{
			name: "two sources of one experiment take turns in one slot",
			run: func(t *testing.T, r *relayRig) {
				if flowSlot(rigSrcA, expA) != flowSlot(rigSrcB, expA) {
					t.Fatal("the rig's sources no longer share a slot")
				}
				for _, src := range []wire.Addr{rigSrcA, rigSrcB, rigSrcA, rigSrcB, rigSrcA} {
					r.ingest(src, expA)
				}
				r.wantFlows(FlowStats{Active: 2, Opened: 2})
				r.wantOut(emitted{"rx-a", 1}, emitted{"rx-a", 2}, emitted{"rx-a", 3}, emitted{"rx-a", 4}, emitted{"rx-a", 5})
				flows := r.eng.Flows()
				if len(flows) != 2 || flows[0].Src != rigSrcA || flows[0].Upgraded != 3 || flows[1].Upgraded != 2 {
					t.Fatalf("flows %+v, want 3 upgrades from A and 2 from B", flows)
				}
				r.nak(expA, 1, 5)
				if len(r.dp.data) != 5 {
					t.Fatalf("NAK of 1..5 served %d packets from the experiment's run, want 5", len(r.dp.data))
				}
			},
		},
		{
			name:   "crash clears the flow table; restart re-resolves",
			mutate: func(c *RelayConfig[testDst]) { c.Shards = 2 },
			run: func(t *testing.T, r *relayRig) {
				r.ingest(rigSrcA, expA)
				r.ingest(rigSrcA, expB)
				r.eng.Crash(nil)
				if !r.eng.Down() {
					t.Fatal("Crash did not take the relay down")
				}
				r.eng.Crash(func() { t.Fatal("second Crash quiesced a relay already down") })
				r.wantFlows(FlowStats{Opened: 2})
				if n := len(r.eng.Flows()); n != 0 {
					t.Fatalf("%d flows survived the crash", n)
				}
				if st := r.eng.Stats(); st.Occupancy != 0 || st.Crashes != 2 ||
					st.BufferedBytes != st.ReleasedBytes {
					t.Fatalf("after crash (want one crash per shard, cold stash): %+v", st)
				}
				r.ingest(rigSrcA, expA) // down: dropped unsequenced
				r.wantFlows(FlowStats{Opened: 2})

				// A rebind failure leaves the relay down.
				boom := errors.New("bind failed")
				if err := r.eng.Restart(func() error { return boom }); !errors.Is(err, boom) || !r.eng.Down() {
					t.Fatalf("failed rebind: err=%v down=%v", err, r.eng.Down())
				}
				// Both receivers moved while the relay was down.
				r.route[expA], r.route[expB] = "rx-a2", "rx-b2"
				if err := r.eng.Restart(nil); err != nil || r.eng.Down() {
					t.Fatalf("Restart: err=%v down=%v", err, r.eng.Down())
				}
				r.ingest(rigSrcA, expA)
				r.ingest(rigSrcA, expB)
				r.wantFlows(FlowStats{Active: 2, Opened: 4})
				// Sequence counters survive in memory; the pre-crash stash
				// does not, so its NAK is a miss.
				r.wantOut(emitted{"rx-a", 1}, emitted{"rx-b", 1}, emitted{"rx-a2", 2}, emitted{"rx-b2", 2})
				r.nak(expB, 1, 1)
				if st := r.eng.Stats(); st.Misses != 1 || st.Retransmits != 0 {
					t.Fatalf("cold-buffer NAK: %+v", st)
				}
			},
		},
		{
			name: "journaled crash and reopen restore stash and sequence floors",
			mutate: func(c *RelayConfig[testDst]) {
				c.Shards = 2
				c.JournalDir = t.TempDir()
				c.DropEveryN = 3
			},
			run: func(t *testing.T, r *relayRig) {
				for i := 0; i < 4; i++ {
					r.ingest(rigSrcA, expA)
					r.ingest(rigSrcA, expB)
				}
				warm := r.eng.Stats().Occupancy
				quiesced := false
				r.eng.Crash(func() { quiesced = true })
				if !quiesced || r.eng.Stats().Occupancy != 0 {
					t.Fatalf("crash: quiesced=%v buffered=%d", quiesced, r.eng.Stats().Occupancy)
				}
				if err := r.eng.Restart(nil); err != nil {
					t.Fatal(err)
				}
				if got := r.eng.Stats().Occupancy; got != warm {
					t.Fatalf("replayed stash holds %d bytes, want %d", got, warm)
				}
				if js := r.eng.JournalStats(); js.Replayed != 8 {
					t.Fatalf("journal stats %+v, want 8 replayed", js)
				}
				// Seq 3 was an injected drop: never emitted, but journaled —
				// the restarted relay serves it warm.
				r.nak(expA, 3, 3)
				if st := r.eng.Stats(); st.Retransmits != 1 || st.Misses != 0 {
					t.Fatalf("warm NAK: %+v", st)
				}
				r.ingest(rigSrcA, expA)
				if last := r.out[len(r.out)-1]; last != (emitted{"rx-a", 5}) {
					t.Fatalf("post-restart upgrade %+v, want seq 5 (floor restored)", last)
				}

				// Process death: a new engine on the same directory comes up
				// with the stash rebuilt before it serves anything.
				if err := r.eng.Close(); err != nil {
					t.Fatal(err)
				}
				r.eng = r.open()
				recovered := 0
				for _, rec := range r.eng.JournalRecoveries() {
					recovered += len(rec.Entries)
				}
				if recovered != 9 || r.eng.Stats().Occupancy <= warm {
					t.Fatalf("reopen recovered %d entries, %d bytes", recovered, r.eng.Stats().Occupancy)
				}
				r.ingest(rigSrcA, expB)
				if last := r.out[len(r.out)-1]; last != (emitted{"rx-b", 5}) {
					t.Fatalf("post-reopen upgrade %+v, want seq 5", last)
				}
			},
		},
		{
			name:   "DropEveryN counts and stashes but does not emit",
			mutate: func(c *RelayConfig[testDst]) { c.DropEveryN = 2 },
			run: func(t *testing.T, r *relayRig) {
				for i := 0; i < 4; i++ {
					r.ingest(rigSrcA, expA)
				}
				r.wantOut(emitted{"rx-a", 1}, emitted{"rx-a", 3})
				st := r.eng.Stats()
				if st.Upgraded != 4 || st.InjectedDrops != 2 || st.Forwarded != 2 || st.Buffered != 4 {
					t.Fatalf("stats %+v", st)
				}
				r.nak(expA, 2, 2)
				if len(r.dp.data) != 1 {
					t.Fatal("dropped packet not recoverable from the stash")
				}
			},
		},
		{
			name: "each stash buffer is released exactly once; the adapter sees only Emit and the datapath",
			mutate: func(c *RelayConfig[testDst]) {
				c.Buffer.CapacityBytes = 100 // two upgraded packets
			},
			run: func(t *testing.T, r *relayRig) {
				r.ingest(rigSrcA, expA)
				r.ingest(rigSrcA, expA)
				r.ingest(rigSrcA, expA) // evicts seq 1
				r.nak(expA, 3, 3)
				if want := []string{"emit", "emit", "emit", "rtx"}; !slices.Equal(r.log, want) {
					t.Fatalf("order %v, want %v", r.log, want)
				}
				if st := r.eng.Stats(); st.Evicted != 1 || len(r.released) != 1 {
					t.Fatalf("stats %+v, %d released, want one eviction", st, len(r.released))
				}
				r.ack(expA, 2) // trims seq 2
				if st := r.eng.Stats(); st.Trimmed != 1 || len(r.released) != 2 {
					t.Fatalf("stats %+v, %d released, want one trim", st, len(r.released))
				}
				r.eng.Crash(nil) // loses seq 3
				if len(r.allocated) != 3 || len(r.released) != 3 {
					t.Fatalf("%d buffers allocated, %d released, want 3 and 3", len(r.allocated), len(r.released))
				}
				for _, b := range r.allocated {
					if n := r.released[b]; n != 1 {
						t.Fatalf("a stash buffer was released %d times", n)
					}
				}
				if st := r.eng.Stats(); st.BufferedBytes != st.ReleasedBytes || st.Occupancy != 0 {
					t.Fatalf("stash imbalance after crash: %+v", st)
				}
			},
		},
		{
			name:   "a burst interleaving two shards is handled in arrival order",
			mutate: func(c *RelayConfig[testDst]) { c.Shards = 2 },
			run: func(t *testing.T, r *relayRig) {
				if r.eng.sb.ShardIndex(expA) == r.eng.sb.ShardIndex(expB) {
					t.Fatal("test experiments share a shard")
				}
				r.ingest(rigSrcA, expA)
				r.ingest(rigSrcB, expB)
				r.ingest(rigSrcA, expA)
				r.nak(expA, 1, 1)
				r.ingest(rigSrcB, expB)
				r.ingest(rigSrcA, expA)
				burst := []emitted{{"rx-a", 1}, {"rx-b", 1}, {"rx-a", 2}, {"rx-b", 2}, {"rx-a", 3}}
				r.wantOut(burst...)
				want := []string{"emit", "emit", "emit", "rtx", "emit", "emit"}
				if !slices.Equal(r.log, want) {
					t.Fatalf("order %v, want %v", r.log, want)
				}
				// A crash between two packets of the burst sweeps both shards:
				// the rest of the burst is dropped, whichever shard it maps to.
				r.eng.Crash(nil)
				r.ingest(rigSrcA, expA)
				r.ingest(rigSrcB, expB)
				r.wantOut(burst...)
				if st := r.eng.Stats(); st.Upgraded != 5 || st.Occupancy != 0 {
					t.Fatalf("after mid-burst crash: %+v", st)
				}
			},
		},
		{
			name: "SetSelf after traffic repoints the next upgrade",
			run: func(t *testing.T, r *relayRig) {
				moved := wire.AddrFrom(10, 0, 1, 2, 7001)
				r.ingest(rigSrcA, expA)
				r.eng.SetSelf(moved)
				r.ingest(rigSrcA, expA)
				r.nak(expA, 1, 2)
				for i, want := range []wire.Addr{rigSelf, moved} {
					if got, _ := wire.View(r.dp.data[i]).RetransmitBuffer(); got != want {
						t.Fatalf("seq %d names retransmit buffer %v, want %v", i+1, got, want)
					}
				}
			},
		},
		{
			name: "already-upgraded traffic passes through along its flow",
			run: func(t *testing.T, r *relayRig) {
				pkt := seqPacket(t, 9, rigSrcB, "x")
				pkt.SetExperiment(expB)
				r.handle(rigSrcA, pkt)
				r.wantOut(emitted{"rx-b", 9})
				if st := r.eng.Stats(); st.Upgraded != 0 || st.Forwarded != 1 || st.Buffered != 0 {
					t.Fatalf("stats %+v", st)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newRelayRig(t, tc.mutate))
		})
	}
}

// TestRelayEngineBoundaryTrace pins the trace half of the upgrade recipe:
// every TraceSample'th untraced packet gets a relay-originated trace with
// a reshape hop stamp, and the sample counter is the relay's upgrade
// count.
func TestRelayEngineBoundaryTrace(t *testing.T) {
	var traced []uint32
	r := newRelayRig(t, func(c *RelayConfig[testDst]) {
		c.TraceSample = 2
		c.Emit = func(_ *Flow[testDst], pkt []byte) {
			v := wire.View(pkt)
			if !v.TraceSampled() {
				return
			}
			tr, err := v.Trace()
			if err != nil || tr.HopCount != 1 {
				t.Errorf("trace %+v err %v, want one reshape hop", tr, err)
			}
			traced = append(traced, tr.TraceID)
		}
	})
	for i := 0; i < 4; i++ {
		r.ingest(rigSrcA, expA)
	}
	// The last upgrade originated a trace; the flow still holds the
	// untraced recipe its next packet takes.
	f := r.eng.flows[flowKey{rigSrcA, expA}]
	if f.recipe == nil || f.recipeFor[1].Has(wire.FeatTraced) {
		t.Fatalf("after a boundary trace the flow holds the recipe for %v", f.recipeFor)
	}
	r.ingest(rigSrcA, expA)
	if len(traced) != 2 || traced[0] != 2 || traced[1] != 4 {
		t.Fatalf("traced upgrades %v, want IDs [2 4]", traced)
	}
}

// TestRelayEvictionStampedWithHandleNow: an eviction that an upgrade
// triggers carries the now Handle was given, not a later clock reading —
// the live relay reads its clock once per burst and hands that reading to
// every packet of it. The eviction is recorded as a run, once Stats has
// been read.
func TestRelayEvictionStampedWithHandleNow(t *testing.T) {
	rec := metrics.NewFlightRecorder(16)
	r := newRelayRig(t, func(c *RelayConfig[testDst]) {
		c.Buffer.CapacityBytes = 1 // every insert evicts what is held
		c.Buffer.Recorder = rec
	})
	burst := r.clock.Now()
	r.clock.Advance(time.Second) // the engine's clock reads later than the burst's
	enc, err := (&wire.Header{Experiment: expA}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt := wire.View(append(enc, "payload"...))
	if _, err := pkt.Check(); err != nil {
		t.Fatal(err)
	}
	r.eng.Handle(rigSrcA, pkt, burst)
	r.eng.Handle(rigSrcA, pkt, burst) // evicts seq 1
	r.eng.Stats()                     // records the pending run
	evicts := eventsOf(rec, metrics.EvEvict)
	if len(evicts) != 1 || evicts[0].Seq != 1 || evicts[0].Aux != 1 || evicts[0].At != burst {
		t.Fatalf("evict events %+v, want one run of 1 from seq 1 at %d (Handle's now), not %d (the clock)", evicts, burst, r.clock.Now())
	}
}

// eventsOf returns rec's events of kind k, oldest first.
func eventsOf(rec *metrics.FlightRecorder, k metrics.EventKind) []metrics.Event {
	var out []metrics.Event
	for _, e := range rec.Snapshot() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestRelayRecordsRunsNotPackets: the relay records no event per packet.
// A burst that evicts on every insert records no reshape and one evict
// event for all its evictions; its reshapes are read off the upgrade count
// at scrape time. The next burst, at another now, is a run of its own, and
// Crash records a pending run before the crash.
func TestRelayRecordsRunsNotPackets(t *testing.T) {
	rec := metrics.NewFlightRecorder(64)
	r := newRelayRig(t, func(c *RelayConfig[testDst]) {
		c.Buffer.CapacityBytes = 1 // every insert evicts what is held
		c.Buffer.Recorder = rec
	})
	reg := metrics.NewRegistry()
	r.eng.RegisterMetrics(reg)
	const burst = 512
	send := func() {
		for i := 0; i < burst; i++ {
			r.ingest(rigSrcA, expA)
		}
	}
	t1 := r.clock.Now()
	send()
	if n := rec.Total(); n != 0 {
		t.Fatalf("a %d-packet burst recorded %d events before anyone read the stats: %v", burst, n, rec.Snapshot())
	}
	st := r.eng.Stats()
	if st.Evicted != burst-1 {
		t.Fatalf("evicted %d, want %d", st.Evicted, burst-1)
	}
	evicts := eventsOf(rec, metrics.EvEvict)
	want := metrics.Event{At: t1, Kind: metrics.EvEvict, Exp: uint64(expA), Seq: 1, Aux: st.Evicted}
	if len(evicts) != 1 || evicts[0] != want {
		t.Fatalf("evict events %+v, want %+v", evicts, want)
	}
	if n := len(eventsOf(rec, metrics.EvReshape)); n != 0 {
		t.Fatalf("%d reshape events, want none", n)
	}
	if got, ok := metrics.SampleValue(reg.Snapshot(), metrics.MetricRelayReshapePrefix+"1"); !ok || got != int64(r.eng.Stats().Upgraded) {
		t.Fatalf("reshape sample %d (exported %v), want Upgraded %d", got, ok, r.eng.Stats().Upgraded)
	}

	r.clock.Advance(time.Millisecond)
	t2 := r.clock.Now()
	send()
	r.eng.Stats()
	evicts = eventsOf(rec, metrics.EvEvict)
	want = metrics.Event{At: t2, Kind: metrics.EvEvict, Exp: uint64(expA), Seq: burst, Aux: burst}
	if len(evicts) != 2 || evicts[1] != want {
		t.Fatalf("evict events after a second burst %+v, want a second run %+v", evicts, want)
	}

	r.clock.Advance(time.Millisecond)
	send()
	r.eng.Crash(nil)
	events := rec.Snapshot()
	if n := len(events); n < 2 || events[n-2].Kind != metrics.EvEvict || events[n-2].Aux != burst || events[n-1].Kind != metrics.EvCrash {
		t.Fatalf("events after a third burst and a crash %v, want its run of %d then the crash", events, burst)
	}
}

// stepLocker is a RelayConfig.Locker that counts its holds and, while
// step is set, runs step at the end of every hold: the receive loop
// handling one more packet between any two holds of a scrape.
type stepLocker struct {
	mu    sync.Mutex
	holds int
	step  func()
}

func (l *stepLocker) Lock() {
	l.mu.Lock()
	l.holds++
}

func (l *stepLocker) Unlock() {
	if step := l.step; step != nil {
		step()
	}
	l.mu.Unlock()
}

// TestRelayScrapeIsOneHold: one scrape of a 2-shard relay's registry takes
// the engine's lock once, so all its values come from one instant. With a
// packet handled at the end of every hold, stashed, upgraded and forwarded
// — always equal on a relay that neither drops nor fails a write — still
// read equal in every scrape.
func TestRelayScrapeIsOneHold(t *testing.T) {
	l := &stepLocker{}
	r := newRelayRig(t, func(c *RelayConfig[testDst]) {
		c.Shards = 2
		c.Locker = l
	})
	reg := metrics.NewRegistry()
	r.eng.RegisterMetrics(reg)
	l.holds = 0
	reg.Snapshot()
	if l.holds != 1 {
		t.Fatalf("one scrape took the engine lock %d times, want 1", l.holds)
	}

	n := 0
	l.step = func() {
		r.ingest(rigSrcA, []wire.ExperimentID{expA, expB}[n%2])
		n++
	}
	for i := range 4 {
		snap := reg.Snapshot()
		var got [3]int64
		for k, name := range []string{metrics.MetricBufStashed, metrics.MetricRelayUpgraded, metrics.MetricRelayForwarded} {
			got[k], _ = metrics.SampleValue(snap, name)
		}
		if got != [3]int64{int64(i), int64(i), int64(i)} {
			t.Fatalf("scrape %d read stashed, upgraded, forwarded = %v, want %d each", i, got, i)
		}
	}
}

// TestRelayCountsMalformed: a datagram that fails View.Check (counted by
// the adapter through CountMalformed) and a NAK or ACK that will not
// decode each raise dmtp.relay.malformed by one, and nothing else.
func TestRelayCountsMalformed(t *testing.T) {
	r := newRelayRig(t, nil)
	reg := metrics.NewRegistry()
	r.eng.RegisterMetrics(reg)
	malformed := func() int64 {
		v, ok := metrics.SampleValue(reg.Snapshot(), metrics.MetricRelayMalformed)
		if !ok {
			t.Fatalf("%s not exported", metrics.MetricRelayMalformed)
		}
		return v
	}
	r.eng.CountMalformed()
	if got := malformed(); got != 1 {
		t.Fatalf("after one failed check: malformed %d, want 1", got)
	}
	nak, err := (&wire.NAK{Experiment: expA, Requester: rigReq, Ranges: []wire.SeqRange{{From: 1, To: 1}}}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	r.handle(rigReq, nak[:len(nak)-1]) // its one range cut short
	ack, err := (&wire.Ack{Experiment: expA, CumulativeSeq: 1, Acker: rigReq}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	r.handle(rigReq, ack[:wire.CoreHeaderLen+1])
	if got := malformed(); got != 3 {
		t.Fatalf("after an undecodable NAK and ACK: malformed %d, want 3", got)
	}
	if st := r.eng.Stats(); st.NAKs != 0 || st.Trimmed != 0 {
		t.Fatalf("undecodable control packets were served: %+v", st)
	}
}

// TestRelayRestoreReleasesRefusedEntries: the journal is outside input. A
// log whose records for one experiment do not ascend restores what ascends;
// the record that does not is refused by the stash and counted, and the
// buffer restore allocated for it goes back through Buffer.Release — once,
// like every buffer the stash did accept.
func TestRelayRestoreReleasesRefusedEntries(t *testing.T) {
	dir := t.TempDir()
	set, err := journal.OpenSet(dir, 1, journal.SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{2, 1, 4} { // 1 is out of order; 3 was lost
		set.Shard(0).Append(expA, seq, seqPacket(t, seq, rigSelf, "journaled"))
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	r := newRelayRig(t, func(c *RelayConfig[testDst]) { c.JournalDir = dir })
	st := r.eng.Stats()
	if st.Buffered != 2 || st.Refused != 1 || len(r.allocated) != 3 {
		t.Fatalf("restore of [2 1 4]: %+v from %d buffers, want 2 stashed and 1 refused of 3", st, len(r.allocated))
	}
	if n := r.released[r.allocated[1]]; n != 1 || len(r.released) != 1 {
		t.Fatalf("refused entry's buffer released %d times, %d buffers released in all; want it alone, once", n, len(r.released))
	}
	r.nak(expA, 1, 4)
	if st := r.eng.Stats(); st.Retransmits != 2 || st.Misses != 2 {
		t.Fatalf("NAK 1..4 over a restored {2, 4}: %+v", st)
	}
	r.ingest(rigSrcA, expA)
	r.wantOut(emitted{"rx-a", 5}) // the floor covers every record, refused or not

	r.ack(expA, 5)
	for i, b := range r.allocated {
		if r.released[b] != 1 {
			t.Fatalf("buffer %d released %d times, want once", i, r.released[b])
		}
	}
}
