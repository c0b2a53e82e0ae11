package dmtp

import "repro/internal/wire"

// ShardedBuffer partitions BufferEngine state across N shards keyed by
// wire.ExperimentID. Every per-experiment structure the engine owns —
// sequence counters, the retransmission stash, NAK service, cumulative
// trim — already lives under the experiment key, so routing each
// experiment to a fixed shard preserves per-experiment ordering exactly.
// What a shard buys is neither parallelism nor cheaper operations — stash,
// trim and NAK service touch only the experiment's own run, whatever else
// the shard holds. A shard is an eviction domain (capacity is split evenly
// and eviction is FIFO per shard) and, under RelayEngine, a journal file
// set with its own writer goroutine; nothing else.
//
// Like BufferEngine itself, ShardedBuffer is not self-synchronizing: it
// contains no locks, and one caller-side lock covers all shards
// (RelayConfig.Locker; the simulator's single event loop needs none).
// Whatever touches every shard — crash, restart, stats, occupancy — is
// RelayEngine's job.
type ShardedBuffer struct {
	shards []*BufferEngine
}

// NewShardedBuffer builds n shards (n < 1 is treated as 1) by calling
// mk once per shard index, so the caller chooses per-shard wiring (its
// journal, its stats struct).
func NewShardedBuffer(n int, mk func(shard int) *BufferEngine) *ShardedBuffer {
	if n < 1 {
		n = 1
	}
	s := &ShardedBuffer{shards: make([]*BufferEngine, n)}
	for i := range s.shards {
		s.shards[i] = mk(i)
	}
	return s
}

// ShardIndex maps an experiment ID to its shard. The multiplicative
// mix spreads the experiment<<8|slice structure of ExperimentID (low
// bits are the slice, often zero) across shards instead of letting
// sequential experiment numbers pile onto shard 0.
func (s *ShardedBuffer) ShardIndex(exp wire.ExperimentID) int {
	h := uint64(exp) * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(len(s.shards)))
}

// Shard returns the engine owning exp's state.
func (s *ShardedBuffer) Shard(exp wire.ExperimentID) *BufferEngine {
	return s.shards[s.ShardIndex(exp)]
}

// At returns the i'th shard engine (for per-shard metrics and tests).
func (s *ShardedBuffer) At(i int) *BufferEngine { return s.shards[i] }

// NextSeq assigns the next sequence number for the experiment on its
// owning shard.
func (s *ShardedBuffer) NextSeq(exp wire.ExperimentID) uint64 {
	return s.Shard(exp).NextSeq(exp)
}

// SeqOf returns the last sequence number assigned to exp (zero if the
// experiment has never been sequenced here).
func (s *ShardedBuffer) SeqOf(exp wire.ExperimentID) uint64 {
	return s.Shard(exp).SeqOf(exp)
}

// Stash retains pkt for retransmission on exp's shard; the ownership and
// ascending-seq contract, and the refusal result, are BufferEngine.Stash's.
func (s *ShardedBuffer) Stash(exp wire.ExperimentID, seq uint64, pkt []byte) bool {
	return s.Shard(exp).Stash(exp, seq, pkt)
}

// ServeNAK routes the NAK to the shard owning its experiment's stash.
func (s *ShardedBuffer) ServeNAK(nak *wire.NAK) {
	s.Shard(nak.Experiment).ServeNAK(nak)
}

// Trim drops stashed packets for exp with seq <= cum on its shard.
func (s *ShardedBuffer) Trim(exp wire.ExperimentID, cum uint64) {
	s.Shard(exp).Trim(exp, cum)
}
