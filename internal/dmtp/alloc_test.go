package dmtp

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// tracedSeqPacket encodes a sequenced packet that carries a FeatTraced
// extension with the given flags (sampled or sampled-out).
func tracedSeqPacket(t *testing.T, seq uint64, flags uint8) wire.View {
	t.Helper()
	h := wire.Header{
		ConfigID:   1,
		Features:   wire.FeatSequenced | wire.FeatReliable | wire.FeatTraced,
		Experiment: wire.NewExperimentID(7, 0),
	}
	h.Seq.Seq = seq
	h.Retransmit.Buffer = wire.AddrFrom(10, 0, 0, 1, 100)
	h.Trace = wire.TraceExt{TraceID: uint32(seq), Flags: flags, HopCount: 1}
	enc, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire.View(append(enc, "payload"...))
}

// TestIngestUntracedZeroAlloc locks in the PR invariant on the receive
// path: with a span collector configured, in-order ingestion of untraced
// and sampled-out packets allocates nothing — the collector is only ever
// reached behind the TraceSampled gate — and, with no Cipher, the
// delivered payload is the ingested packet's own bytes, not a copy.
func TestIngestUntracedZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		pkt  func(seq uint64) wire.View
	}{
		{"untraced", func(seq uint64) wire.View {
			v := seqPacket(t, seq, wire.AddrFrom(10, 0, 0, 1, 100), "payload")
			return v
		}},
		{"sampled-out", func(seq uint64) wire.View {
			return tracedSeqPacket(t, seq, 0) // FeatTraced present, flag clear
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := NewFakeClock(0)
			tracer := tracespan.NewCollector(0)
			var got []byte
			eng := NewReceiverEngine(fc, nopDatapath{}, ReceiverConfig{
				NAKDelay:    time.Millisecond,
				NAKRetry:    5 * time.Millisecond,
				NAKRetryMax: 500 * time.Millisecond,
				MaxNAKs:     3,
				Tracer:      tracer,
				Deliver:     func(m Message) { got = m.Payload },
			})
			seq := uint64(0)
			warm := tc.pkt(1)
			for ; seq < 8; seq++ {
				if err := warm.SetSeq(seq + 1); err != nil {
					t.Fatal(err)
				}
				eng.Ingest(warm)
			}
			if avg := testing.AllocsPerRun(300, func() {
				seq++
				if err := warm.SetSeq(seq); err != nil {
					t.Fatal(err)
				}
				eng.Ingest(warm)
			}); avg != 0 {
				t.Fatalf("%s ingest allocates %.2f allocs/op, want 0", tc.name, avg)
			}
			if p := warm.Payload(); string(got) != "payload" || &got[0] != &p[0] {
				t.Fatalf("delivered payload %q at %p is not the packet's own at %p", got, got, p)
			}
			if tracer.Sampled() != 0 {
				t.Fatalf("collector observed %d records from %s packets", tracer.Sampled(), tc.name)
			}
		})
	}
}

// TestGapOpenCloseZeroAlloc extends the ingest gate to loss: once the gap
// list has its capacity, opening gaps and closing them by reordered
// arrivals — the newest one, and one from the middle of the list —
// allocates nothing; a lost number costs no heap object, and neither does
// a delivered one (no Cipher: deliveries alias the packet).
// The NAK timer is not part of the claim: an older gap stays open
// throughout and keeps one pending, as sustained loss does.
func TestGapOpenCloseZeroAlloc(t *testing.T) {
	eng := NewReceiverEngine(NewFakeClock(0), nopDatapath{}, ReceiverConfig{
		NAKDelay:    time.Millisecond,
		NAKRetry:    5 * time.Millisecond,
		NAKRetryMax: 500 * time.Millisecond,
		MaxNAKs:     3,
	})
	pkt := seqPacket(t, 1, wire.AddrFrom(10, 0, 0, 1, 100), "payload")
	ingest := func(seq uint64) {
		if err := pkt.SetSeq(seq); err != nil {
			t.Fatal(err)
		}
		eng.Ingest(pkt)
	}
	ingest(1)
	ingest(3) // 2 stays open for the whole test: the NAK timer stays armed
	seq := uint64(3)
	step := func() {
		ingest(seq + 3) // opens seq+1 and seq+2
		ingest(seq + 2) // closes the newest
		ingest(seq + 1) // closes one from the middle of the list
		seq += 3
	}
	for i := 0; i < 64; i++ {
		step() // warm: gap-list capacity
	}
	if avg := testing.AllocsPerRun(300, step); avg != 0 {
		t.Fatalf("opening and closing gaps allocates %.2f allocs/op, want 0", avg)
	}
	ingest(2) // closing the oldest: the list is empty again
	if got := eng.OutstandingGaps(); got != 0 {
		t.Fatalf("%d gaps left open", got)
	}
}

// TestCampaignScenarioLoopZeroAlloc locks in the invariant the campaign
// runner's throughput rests on: the per-packet path a clean steady-state
// scenario drives — sequence assignment, stash, in-order ingest, and the
// periodic cumulative trim — allocates nothing once warm. Scenario setup
// may allocate; the driven loop must not, or thousand-cell sweeps stop
// being cheap.
func TestCampaignScenarioLoopZeroAlloc(t *testing.T) {
	fc := NewFakeClock(0)
	rec := metrics.NewFlightRecorder(64)
	exp := wire.NewExperimentID(7, 0)
	buf := NewBufferEngine(nopDatapath{}, BufferConfig{Clock: fc, Recorder: rec})
	eng := NewReceiverEngine(fc, nopDatapath{}, ReceiverConfig{
		NAKDelay:    time.Millisecond,
		NAKRetry:    5 * time.Millisecond,
		NAKRetryMax: 500 * time.Millisecond,
		MaxNAKs:     3,
		Recorder:    rec,
	})
	warm := seqPacket(t, 1, wire.AddrFrom(10, 0, 0, 1, 100), "payload")
	stash := append([]byte(nil), warm...) // engine-owned stash copy, allocated in setup
	step := func() {
		seq := buf.NextSeq(exp)
		buf.Stash(exp, seq, stash)
		if err := warm.SetSeq(seq); err != nil {
			t.Fatal(err)
		}
		eng.Ingest(warm)
		if seq%16 == 0 {
			buf.Trim(exp, seq)
		}
	}
	for i := 0; i < 64; i++ {
		step() // warm: map buckets, order-ring capacity, stream state
	}
	if avg := testing.AllocsPerRun(300, step); avg != 0 {
		t.Fatalf("campaign scenario loop allocates %.2f allocs/op, want 0", avg)
	}
}

// TestShardedStashZeroAlloc extends the stash gate to the sharded path:
// once warm, driving several experiments through ShardedBuffer —
// shard selection, sequence assignment, stash, periodic trim —
// allocates nothing. Shard routing is pure arithmetic; partitioning
// must not reintroduce per-packet cost.
func TestShardedStashZeroAlloc(t *testing.T) {
	sb := NewShardedBuffer(4, func(int) *BufferEngine {
		return NewBufferEngine(nopDatapath{}, BufferConfig{})
	})
	exps := []wire.ExperimentID{
		wire.NewExperimentID(101, 0),
		wire.NewExperimentID(202, 0),
		wire.NewExperimentID(303, 0),
	}
	stashes := make([][]byte, len(exps))
	for i := range stashes {
		pkt := seqPacket(t, 1, wire.AddrFrom(10, 0, 0, 1, 100), "payload")
		stashes[i] = append([]byte(nil), pkt...) // engine-owned copies, setup alloc
	}
	step := func() {
		for i, exp := range exps {
			seq := sb.NextSeq(exp)
			sb.Stash(exp, seq, stashes[i])
			if seq%16 == 0 {
				sb.Trim(exp, seq)
			}
		}
	}
	for i := 0; i < 64; i++ {
		step() // warm: per-shard map buckets and order rings
	}
	if avg := testing.AllocsPerRun(300, step); avg != 0 {
		t.Fatalf("sharded stash loop allocates %.2f allocs/op, want 0", avg)
	}
}

// TestEvictingStashZeroAlloc gates a full stash shared by many
// experiments, where every insert evicts: once each experiment's window
// has settled — one growth of its slot slice past the window at fill —
// the inserts allocate nothing, however long the slices have been
// reclaiming their dead prefixes. Growing in append's 1.25× steps instead
// reallocates each slice more than once after the stash fills.
func TestEvictingStashZeroAlloc(t *testing.T) {
	const (
		nexp   = 16
		window = 1000 // entries each experiment holds once the stash is full
	)
	pkt := make([]byte, 64)
	b := NewBufferEngine(nopDatapath{}, BufferConfig{CapacityBytes: nexp * window * len(pkt)})
	exps := make([]wire.ExperimentID, nexp)
	for i := range exps {
		exps[i] = wire.NewExperimentID(uint32(1000+i), 0)
	}
	var seq uint64
	round := func() {
		seq++
		for _, exp := range exps {
			b.Stash(exp, seq, pkt)
		}
	}
	for range window + window/10 {
		round() // fill, then a tenth of a window of evicting inserts
	}
	if st := b.Stats(); st.Evicted != nexp*window/10 {
		t.Fatalf("warm-up evicted %d, want %d: the stash is not full", st.Evicted, nexp*window/10)
	}
	// Count every allocation over two windows of rounds, rather than an
	// integer average per round (testing.AllocsPerRun), which rounds a
	// growth per experiment every few hundred rounds down to zero.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 2 * window {
		round()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d evicting inserts into a full %d-experiment stash made %d allocations, want 0", 2*window*nexp, nexp, n)
	}
}

// TestJournaledStashZeroAlloc extends the stash gate to the durable
// path: with a write-ahead journal attached, the per-packet ingest loop
// — sequence assignment, stash (which frames an append record onto the
// journal's stage), periodic trim — still allocates nothing once warm.
// Each iteration ends with a journal flush barrier, so the writers' side
// (take, write, swap the buffers back) is inside the measured loop too.
func TestJournaledStashZeroAlloc(t *testing.T) {
	jset, err := journal.OpenSet(t.TempDir(), 4, journal.SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jset.Close()
	sb := NewShardedBuffer(4, func(i int) *BufferEngine {
		return NewBufferEngine(nopDatapath{}, BufferConfig{Journal: jset.Shard(i)})
	})
	exps := []wire.ExperimentID{
		wire.NewExperimentID(101, 0),
		wire.NewExperimentID(202, 0),
		wire.NewExperimentID(303, 0),
	}
	stashes := make([][]byte, len(exps))
	for i := range stashes {
		pkt := seqPacket(t, 1, wire.AddrFrom(10, 0, 0, 1, 100), "payload")
		stashes[i] = append([]byte(nil), pkt...) // engine-owned copies, setup alloc
	}
	step := func() {
		for i, exp := range exps {
			seq := sb.NextSeq(exp)
			sb.Stash(exp, seq, stashes[i])
			if seq%16 == 0 {
				sb.Trim(exp, seq)
			}
		}
		jset.Flush()
	}
	for i := 0; i < 64; i++ {
		step() // warm: shard maps, order rings, the writers' floor maps
	}
	if avg := testing.AllocsPerRun(300, step); avg != 0 {
		t.Fatalf("journaled stash loop allocates %.2f allocs/op, want 0", avg)
	}
}

// TestRelayUpgradeZeroAlloc gates the relay's upgrade path: once warm,
// Handle on untraced and traced mode-0 packets, with boundary traces
// originated on some of the untraced ones — three recipes — plus the
// periodic trim, allocates nothing when Alloc and Release are a stash
// log's Get and Put.
func TestRelayUpgradeZeroAlloc(t *testing.T) {
	stash := wire.NewStashLog(DefaultCapacityBytes)
	eng, err := NewRelayEngine(RelayConfig[testDst]{
		Shards:      2,
		Buffer:      BufferConfig{Release: stash.Put, Recorder: metrics.NewFlightRecorder(64)},
		Datapath:    nopDatapath{},
		Alloc:       stash.Get,
		Resolve:     func(wire.Addr, wire.ExperimentID) testDst { return "rx" },
		Mode:        ModeLive,
		Upgrade:     Upgrade{MaxAge: time.Second, DeadlineBudget: time.Second},
		TraceSample: 3,
		Emit:        func(f *Flow[testDst], _ []byte) { f.Sent(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetSelf(rigSelf)
	untraced, err := (&wire.Header{Experiment: expA}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := (&wire.Header{Features: wire.FeatTraced, Experiment: expB,
		Trace: wire.TraceExt{TraceID: 1, Flags: wire.TraceSampledFlag, HopCount: 1}}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	untraced, traced = append(untraced, "payload"...), append(traced, "payload"...)
	n := 0
	step := func() {
		eng.Handle(rigSrcA, untraced, rigStart)
		eng.Handle(rigSrcB, traced, rigStart)
		if n++; n%16 == 0 {
			eng.Buffer().Trim(expA, eng.Buffer().SeqOf(expA))
			eng.Buffer().Trim(expB, eng.Buffer().SeqOf(expB))
		}
	}
	for i := 0; i < 64; i++ {
		step() // warm: flows, recipes, stash runs, the stash log
	}
	if avg := testing.AllocsPerRun(300, step); avg != 0 {
		t.Fatalf("relay upgrade allocates %.2f allocs/op, want 0", avg)
	}
}

// TestServeNAKUntracedZeroAlloc locks in the relay-side invariant: serving
// NAKs from a stash of untraced (and sampled-out) packets — the path that
// probes every stash entry with TraceSampled before retransmitting —
// allocates nothing.
func TestServeNAKUntracedZeroAlloc(t *testing.T) {
	dp := nopDatapath{}
	b := NewBufferEngine(dp, BufferConfig{})
	exp := wire.NewExperimentID(7, 0)
	for seq := uint64(1); seq <= 4; seq++ {
		b.Stash(exp, seq, tracedSeqPacket(t, seq, 0))
	}
	nak := &wire.NAK{
		Experiment: exp,
		Requester:  wire.AddrFrom(10, 0, 0, 2, 200),
		Ranges:     []wire.SeqRange{{From: 1, To: 4}},
	}
	if avg := testing.AllocsPerRun(300, func() {
		b.ServeNAK(nak)
	}); avg != 0 {
		t.Fatalf("ServeNAK allocates %.2f allocs/op, want 0", avg)
	}
}
