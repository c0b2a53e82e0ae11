package p4sim

import (
	"testing"
	"time"

	"repro/internal/dmtp"
	"repro/internal/sim"
	"repro/internal/wire"
)

// buildPilotChain returns a pipeline shaped like the pilot's border switch —
// age tracker, deadline marker, experiment counter, forwarder — plus a
// packet in the live relay's mode that exercises all of them.
func buildPilotChain(t *testing.T) (*Pipeline, wire.View, *Meta) {
	t.Helper()
	fwd := NewForwarder().Route(wire.Addr{IP: [4]byte{10, 0, 0, 2}, Port: 1}, 1)
	pipe := NewPipeline(NewContext(nil),
		&AgeTracker{PortDeltaMicros: map[int]uint32{WildcardPort: 50}},
		&DeadlineMarker{SuppressWindow: time.Second},
		ExperimentCounter{},
		fwd,
	)
	h := wire.Header{
		ConfigID:   dmtp.ModeLive.ConfigID,
		Features:   dmtp.ModeLive.Features,
		Experiment: wire.NewExperimentID(12, 1),
	}
	h.Age.MaxAgeMicros = 1 << 30
	h.Deadline.DeadlineNanos = 1 << 62
	pkt, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt = append(pkt, make([]byte, 512)...)
	meta := &Meta{}
	return pipe, wire.View(pkt), meta
}

// TestProcessChainZeroAlloc locks in the per-packet steady state of the
// pipeline: after the first packet warms the register arrays and counter
// caches, running the full non-reshaping stage chain allocates nothing.
func TestProcessChainZeroAlloc(t *testing.T) {
	pipe, pkt, meta := buildPilotChain(t)
	dst := wire.Addr{IP: [4]byte{10, 0, 0, 2}, Port: 1}
	var now int64
	run := func() {
		// Advance virtual time as a real packet cadence would.
		now += int64(time.Microsecond)
		meta.Reset(sim.Time(now), 0, wire.Addr{}, dst)
		if _, err := pipe.Run(pkt, meta); err != nil {
			t.Fatal(err)
		}
		if meta.Drop {
			t.Fatalf("unexpected drop: %s", meta.DropReason)
		}
	}
	run() // warm-up: registers, counter cache, map buckets
	if avg := testing.AllocsPerRun(500, run); avg != 0 {
		t.Fatalf("Process chain allocates %.1f allocs/op, want 0", avg)
	}
}

// TestMetaResetPreservesCapacity verifies Reset keeps the Copies/Mints
// backing arrays (the point of the scratch Meta) while clearing state.
func TestMetaResetPreservesCapacity(t *testing.T) {
	m := &Meta{}
	m.Copies = append(m.Copies, Copy{Port: 3})
	m.Mints = append(m.Mints, Mint{}, Mint{})
	m.Drop = true
	m.DropReason = "x"
	m.EgressPort = 7
	m.NewDst = wire.Addr{IP: [4]byte{1, 2, 3, 4}}
	capCopies, capMints := cap(m.Copies), cap(m.Mints)
	m.Reset(42, 2, wire.Addr{IP: [4]byte{9, 9, 9, 9}}, wire.Addr{IP: [4]byte{8, 8, 8, 8}})
	if len(m.Copies) != 0 || len(m.Mints) != 0 {
		t.Fatalf("Reset kept entries: %d copies, %d mints", len(m.Copies), len(m.Mints))
	}
	if cap(m.Copies) != capCopies || cap(m.Mints) != capMints {
		t.Fatal("Reset dropped backing arrays")
	}
	if m.Drop || m.DropReason != "" || m.EgressPort != -1 || !m.NewDst.IsZero() {
		t.Fatalf("Reset left stale state: %+v", m)
	}
	if m.Now != 42 || m.IngressPort != 2 {
		t.Fatalf("Reset did not install new state: %+v", m)
	}
}

// TestExperimentCounterCache verifies the memoized counters are the same
// objects the named lookup returns, so diagnostics reading ctx.Counter by
// name see the counts recorded through the cache.
func TestExperimentCounterCache(t *testing.T) {
	ctx := NewContext(nil)
	pipe := NewPipeline(ctx, ExperimentCounter{})
	h := wire.Header{ConfigID: 0, Experiment: wire.NewExperimentID(5, 2)}
	pkt, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := &Meta{EgressPort: -1}
	for i := 0; i < 3; i++ {
		if _, err := pipe.Run(pkt, meta); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctx.Counter("exp/5").Packets; got != 3 {
		t.Fatalf("exp counter %d, want 3", got)
	}
	if got := ctx.Counter("exp/5/slice/2").Packets; got != 3 {
		t.Fatalf("slice counter %d, want 3", got)
	}
}
