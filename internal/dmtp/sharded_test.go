package dmtp

import (
	"testing"

	"repro/internal/wire"
)

// TestShardedBufferPartitions verifies the partitioning contract: every
// experiment maps to exactly one stable shard, per-experiment sequencing
// is continuous regardless of interleaving with other experiments, NAKs
// are served from the owning shard's stash, and trims never cross
// shards.
func TestShardedBufferPartitions(t *testing.T) {
	const shards = 4
	dps := make([]*recDatapath, shards)
	sb := NewShardedBuffer(shards, func(i int) *BufferEngine {
		dps[i] = &recDatapath{}
		return NewBufferEngine(dps[i], BufferConfig{})
	})

	exps := []wire.ExperimentID{
		wire.NewExperimentID(101, 0),
		wire.NewExperimentID(202, 0),
		wire.NewExperimentID(303, 1),
		wire.NewExperimentID(404, 2),
	}
	// Stable, single-shard mapping for each experiment.
	for _, exp := range exps {
		i := sb.ShardIndex(exp)
		if i < 0 || i >= shards {
			t.Fatalf("ShardIndex(%v) = %d out of range", exp, i)
		}
		if j := sb.ShardIndex(exp); j != i {
			t.Fatalf("ShardIndex(%v) unstable: %d then %d", exp, i, j)
		}
		if sb.Shard(exp) != sb.At(i) {
			t.Fatalf("Shard(%v) is not At(ShardIndex)", exp)
		}
	}

	// Interleaved sequencing stays continuous per experiment.
	for round := 0; round < 3; round++ {
		for _, exp := range exps {
			want := uint64(round + 1)
			if got := sb.NextSeq(exp); got != want {
				t.Fatalf("NextSeq(%v) round %d = %d, want %d", exp, round, got, want)
			}
			if got := sb.SeqOf(exp); got != want {
				t.Fatalf("SeqOf(%v) = %d, want %d", exp, got, want)
			}
		}
	}

	// Stash one packet per experiment per seq; occupancy lands on the
	// owning shard only.
	for _, exp := range exps {
		for seq := uint64(1); seq <= 3; seq++ {
			pkt := seqPacket(t, seq, wire.AddrFrom(10, 0, 0, 1, 100), "payload")
			pkt.SetExperiment(exp)
			sb.Stash(exp, seq, pkt)
		}
	}
	buffered := func() (total int) {
		for i := 0; i < shards; i++ {
			total += sb.At(i).BufferedBytes()
		}
		return total
	}
	stats := func() (agg BufferStats) {
		for i := 0; i < shards; i++ {
			agg.Add(sb.At(i).Stats())
		}
		return agg
	}

	// A NAK for one experiment is served from its shard and nowhere else.
	req := wire.AddrFrom(10, 0, 0, 9, 900)
	sb.ServeNAK(&wire.NAK{
		Experiment: exps[0],
		Requester:  req,
		Ranges:     []wire.SeqRange{{From: 1, To: 2}},
	})
	own := sb.ShardIndex(exps[0])
	for i, dp := range dps {
		want := 0
		if i == own {
			want = 2
		}
		if len(dp.data) != want {
			t.Fatalf("shard %d served %d retransmits, want %d", i, len(dp.data), want)
		}
	}
	if st := stats(); st.Retransmits != 2 || st.NAKs != 1 {
		t.Fatalf("aggregate stats %+v, want 2 retransmits / 1 NAK", st)
	}

	// Trimming one experiment leaves the others' stashes intact.
	before := buffered()
	sb.Trim(exps[1], 3)
	if st := stats(); st.Trimmed != 3 {
		t.Fatalf("trimmed %d, want 3", st.Trimmed)
	}
	if buffered() >= before {
		t.Fatal("trim released nothing")
	}
	for _, exp := range []wire.ExperimentID{exps[0], exps[2], exps[3]} {
		sh := sb.Shard(exp)
		if exp == exps[1] {
			continue
		}
		if sh == sb.Shard(exps[1]) {
			continue // co-resident shard: occupancy mixes, skip
		}
		if sh.BufferedBytes() == 0 {
			t.Fatalf("trim of %v emptied unrelated shard of %v", exps[1], exp)
		}
	}
}

// TestShardedBufferSingleShardDegenerate pins the n<1 clamp and that a
// one-shard buffer behaves exactly like a bare engine.
func TestShardedBufferSingleShardDegenerate(t *testing.T) {
	sb := NewShardedBuffer(0, func(int) *BufferEngine {
		return NewBufferEngine(nopDatapath{}, BufferConfig{})
	})
	exp := wire.NewExperimentID(7, 0)
	if sb.ShardIndex(exp) != 0 {
		t.Fatal("single shard must own everything")
	}
	if sb.NextSeq(exp) != 1 || sb.NextSeq(exp) != 2 {
		t.Fatal("sequencing broken on single shard")
	}
}
