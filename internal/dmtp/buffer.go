package dmtp

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// BufferStats are cumulative buffer-engine counters. Substrate adapters
// embed them in (or map them into) their own stats types.
type BufferStats struct {
	Buffered      uint64
	BufferedBytes uint64
	// ReleasedBytes counts every stashed byte the engine let go of
	// (eviction, trim, crash) — the balance counter for the campaign's
	// stash-release oracle: BufferedBytes − ReleasedBytes must equal
	// current occupancy at every quiescent point.
	ReleasedBytes uint64
	Evicted       uint64
	Trimmed       uint64 // dropped after cumulative ACK
	NAKs          uint64
	Retransmits   uint64
	Misses        uint64 // NAKed sequence numbers no longer buffered
	Crashes       uint64 // Crash() invocations (chaos testing)
}

// Add accumulates o into s, field by field — the one place per-shard
// counters are summed.
func (s *BufferStats) Add(o BufferStats) {
	s.Buffered += o.Buffered
	s.BufferedBytes += o.BufferedBytes
	s.ReleasedBytes += o.ReleasedBytes
	s.Evicted += o.Evicted
	s.Trimmed += o.Trimmed
	s.NAKs += o.NAKs
	s.Retransmits += o.Retransmits
	s.Misses += o.Misses
	s.Crashes += o.Crashes
}

// Journal is the optional write-ahead contract a BufferEngine keeps its
// stash durable through: an append for every stash insert, a tombstone
// for every capacity eviction, and a trim mark for every cumulative-ACK
// release. Crash() deliberately journals nothing — process death loses
// memory, and the journal is exactly the state that survives it;
// RelayEngine replays the journal into RestoreStash/RestoreSeq on restart.
// internal/journal provides the implementation; the engine only knows
// this interface, so a nil journal keeps today's behavior byte-for-byte.
type Journal interface {
	// Append journals one stash insert. The engine retains ownership of
	// pkt; implementations must copy what they keep.
	Append(exp wire.ExperimentID, seq uint64, pkt []byte)
	// Tombstone journals one capacity eviction of (exp, seq).
	Tombstone(exp wire.ExperimentID, seq uint64)
	// TrimTo journals a cumulative-ACK trim: every entry of exp at or
	// below cum is released.
	TrimTo(exp wire.ExperimentID, cum uint64)
}

// BufferConfig configures a BufferEngine.
type BufferConfig struct {
	// CapacityBytes bounds the retransmission buffer; oldest packets
	// are evicted first. Zero means 64 MiB.
	CapacityBytes int
	// Release, when non-nil, is called exactly once for every stashed
	// buffer the engine lets go of (eviction, trim, crash). The live
	// adapter returns pooled buffers to wire.BufferPool here, once no queued
	// forward references them; the simulator lets the GC collect clones.
	Release func([]byte)
	// Stats, when non-nil, is where the engine counts; adapters expose
	// it as part of their own stats. Nil allocates a private struct.
	Stats *BufferStats
	// Recorder, when non-nil, receives flight-recorder events (nak-served,
	// nak-miss, evict, trim, crash, restart) stamped with Clock. Recording
	// is lock- and allocation-free; nil disables it entirely.
	Recorder *metrics.FlightRecorder
	// Clock stamps Recorder events. Nil defaults to WallClock; the
	// simulator adapter passes its virtual clock so event timestamps align
	// with the trace.
	Clock Clock
	// Journal, when non-nil, receives a write-ahead record for every
	// stash mutation (insert, eviction, trim) so the adapter can rebuild
	// the stash after a crash. Nil disables journaling entirely.
	Journal Journal
}

type bufKey struct {
	exp wire.ExperimentID
	seq uint64
}

// BufferEngine is the retransmission-buffer state machine shared by the
// simulator's BufferNode and the live Relay: per-experiment sequence
// assignment, a FIFO-evicted stash that owns its entries, NAK service,
// cumulative-ACK trim, and crash/restart. Like ReceiverEngine it is not
// self-synchronizing; the adapter serializes access.
type BufferEngine struct {
	cfg   BufferConfig
	dp    Datapath
	stats *BufferStats

	seqs  map[wire.ExperimentID]uint64
	store map[bufKey][]byte
	order []bufKey // FIFO for eviction
	bytes int
	down  bool // crashed: adapters discard traffic until Restart
	// restoring suppresses journal appends while RestoreStash re-inserts
	// journal-recovered entries (they are already on disk).
	restoring bool
}

// NewBufferEngine builds an engine over the given datapath.
func NewBufferEngine(dp Datapath, cfg BufferConfig) *BufferEngine {
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = 64 << 20
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock{}
	}
	stats := cfg.Stats
	if stats == nil {
		stats = &BufferStats{}
	}
	return &BufferEngine{
		cfg:   cfg,
		dp:    dp,
		stats: stats,
		seqs:  make(map[wire.ExperimentID]uint64),
		store: make(map[bufKey][]byte),
	}
}

// Stats returns a snapshot of the engine counters.
func (b *BufferEngine) Stats() BufferStats { return *b.stats }

// BufferedBytes returns current buffer occupancy.
func (b *BufferEngine) BufferedBytes() int { return b.bytes }

// NextSeq assigns the next sequence number for the experiment.
func (b *BufferEngine) NextSeq(exp wire.ExperimentID) uint64 {
	b.seqs[exp]++
	return b.seqs[exp]
}

// SeqOf returns the last sequence number assigned to exp, zero if none.
// Oracles use it to check which experiments an upgrader actually
// sequenced (a delivery for an experiment with SeqOf == 0 means
// sequence state bled across flows).
func (b *BufferEngine) SeqOf(exp wire.ExperimentID) uint64 { return b.seqs[exp] }

// Crash models the buffering process dying: the retransmission buffer
// is lost (entries are released), and the engine marks itself down so
// the adapter discards traffic until Restart. Sequence counters survive
// in memory; buffered payloads do not, so post-Restart NAKs for
// pre-crash packets meet a cold buffer — unless the adapter runs a
// Journal, in which case it replays the log into RestoreStash/
// RestoreSeq after Restart and resumes NAK service warm. Crash itself
// journals nothing: the log is precisely the state that outlives the
// process.
func (b *BufferEngine) Crash() {
	if b.down {
		return
	}
	b.down = true
	b.stats.Crashes++
	if b.cfg.Recorder != nil {
		b.cfg.Recorder.RecordAt(b.cfg.Clock.Now(), metrics.EvCrash, 0, 0, uint64(b.bytes))
	}
	for _, pkt := range b.store {
		b.stats.ReleasedBytes += uint64(len(pkt))
		if b.cfg.Release != nil {
			b.cfg.Release(pkt)
		}
	}
	b.store = make(map[bufKey][]byte)
	b.order = nil
	b.bytes = 0
}

// Restart brings a crashed engine back into service with a cold buffer.
func (b *BufferEngine) Restart() {
	b.down = false
	if b.cfg.Recorder != nil {
		b.cfg.Recorder.RecordAt(b.cfg.Clock.Now(), metrics.EvRestart, 0, 0, 0)
	}
}

// Down reports whether the engine is crashed.
func (b *BufferEngine) Down() bool { return b.down }

// Stash takes ownership of pkt and retains it for retransmission until
// capacity eviction, a cumulative-ACK trim, or a crash releases it.
// Callers whose packet buffers have other owners must pass a copy —
// downstream elements mutate headers in flight (age, back-pressure
// level), and the buffer must retransmit the packet as it left here.
func (b *BufferEngine) Stash(exp wire.ExperimentID, seq uint64, pkt []byte) {
	for b.bytes+len(pkt) > b.cfg.CapacityBytes && len(b.order) > 0 {
		oldest := b.order[0]
		b.order = b.order[1:]
		if old, ok := b.store[oldest]; ok {
			b.bytes -= len(old)
			delete(b.store, oldest)
			if b.cfg.Release != nil {
				b.cfg.Release(old)
			}
			b.stats.ReleasedBytes += uint64(len(old))
			b.stats.Evicted++
			if b.cfg.Journal != nil {
				b.cfg.Journal.Tombstone(oldest.exp, oldest.seq)
			}
			if b.cfg.Recorder != nil {
				b.cfg.Recorder.RecordAt(b.cfg.Clock.Now(), metrics.EvEvict,
					uint64(oldest.exp), oldest.seq, uint64(len(old)))
			}
		}
	}
	k := bufKey{exp, seq}
	b.store[k] = pkt
	b.order = append(b.order, k)
	b.bytes += len(pkt)
	b.stats.Buffered++
	b.stats.BufferedBytes += uint64(len(pkt))
	if b.cfg.Journal != nil && !b.restoring {
		b.cfg.Journal.Append(exp, seq, pkt)
	}
}

// RestoreStash re-inserts a journal-recovered entry without journaling a
// fresh append (the record is already on disk). Capacity evictions
// triggered by the restore still journal their tombstones, keeping the
// log consistent with the rebuilt stash. Like Stash, the engine takes
// ownership of pkt.
func (b *BufferEngine) RestoreStash(exp wire.ExperimentID, seq uint64, pkt []byte) {
	b.restoring = true
	b.Stash(exp, seq, pkt)
	b.restoring = false
}

// RestoreSeq raises exp's sequence-assignment counter to at least seq.
// Restart recovery calls it with the journal's sequence floor so a
// restarted relay never re-assigns a sequence number it already used.
func (b *BufferEngine) RestoreSeq(exp wire.ExperimentID, seq uint64) {
	if b.seqs[exp] < seq {
		b.seqs[exp] = seq
	}
}

// ServeNAK retransmits the requested sequence numbers still buffered,
// directly to the requester. The engine retains ownership of the stash
// entries (Datapath.SendData contract). A NAK is outside input and can
// name the whole sequence space: it gets at most DefaultMaxSeqJump
// lookups, and what it names beyond them is missed unvisited.
func (b *BufferEngine) ServeNAK(nak *wire.NAK) {
	b.stats.NAKs++
	var served uint64
	budget := DefaultMaxSeqJump
	for _, r := range nak.Ranges {
		for seq := r.From; seq <= r.To && budget > 0; seq++ {
			budget--
			if pkt, ok := b.store[bufKey{nak.Experiment, seq}]; ok {
				if v := wire.View(pkt); v.TraceSampled() {
					// Stash entries are engine-owned, so stamping in place is
					// safe on both substrates; the reshape→rtx stamp gap makes
					// stash residency visible in the reconstructed span tree.
					_ = v.AppendHopStamp(wire.TraceHopRetransmit, b.cfg.Clock.Now())
				}
				b.dp.SendData(nak.Requester, pkt)
				b.stats.Retransmits++
				served++
			}
			if seq == r.To { // avoid uint64 wrap on To == MaxUint64
				break
			}
		}
	}
	// Requested and not retransmitted, visited or not; wraps like the counter.
	missed := nak.TotalMissing() - served
	b.stats.Misses += missed
	if b.cfg.Recorder != nil && len(nak.Ranges) > 0 {
		now := b.cfg.Clock.Now()
		b.cfg.Recorder.RecordAt(now, metrics.EvNAKServed,
			uint64(nak.Experiment), nak.Ranges[0].From, served)
		if missed > 0 {
			b.cfg.Recorder.RecordAt(now, metrics.EvNAKMiss,
				uint64(nak.Experiment), nak.Ranges[0].From, missed)
		}
	}
}

// Trim drops buffered packets up to and including cum, releasing them.
func (b *BufferEngine) Trim(exp wire.ExperimentID, cum uint64) {
	kept := b.order[:0]
	var released uint64
	for _, k := range b.order {
		if k.exp == exp && k.seq <= cum {
			if old, ok := b.store[k]; ok {
				b.bytes -= len(old)
				delete(b.store, k)
				if b.cfg.Release != nil {
					b.cfg.Release(old)
				}
				b.stats.ReleasedBytes += uint64(len(old))
				b.stats.Trimmed++
				released++
			}
			continue
		}
		kept = append(kept, k)
	}
	b.order = kept
	if b.cfg.Journal != nil {
		b.cfg.Journal.TrimTo(exp, cum)
	}
	if released > 0 && b.cfg.Recorder != nil {
		b.cfg.Recorder.RecordAt(b.cfg.Clock.Now(), metrics.EvTrim, uint64(exp), cum, released)
	}
}

// Upgrade describes the header fields a buffering element stamps into a
// packet it upgrades into a richer mode. Both substrates stamp through
// StampUpgrade so the installed header bytes cannot drift apart.
type Upgrade struct {
	// Self is the element's own address — what the retransmission-
	// buffer pointer is set to.
	Self wire.Addr
	// MaxAge is the age budget installed when the mode is age-tracked;
	// zero leaves the (zeroed) extension untouched.
	MaxAge time.Duration
	// DeadlineBudget sets deadline = now + budget when the mode is
	// timely; zero leaves the deadline unset.
	DeadlineBudget time.Duration
	// DeadlineNotify is where on-path elements report late packets.
	DeadlineNotify wire.Addr
	// BackPressureSink is where on-path elements send congestion
	// signals when the mode carries back-pressure.
	BackPressureSink wire.Addr
}

// StampUpgrade installs the upgrade fields into a freshly reshaped view:
// sequence number, retransmission-buffer pointer, age budget, delivery
// deadline, back-pressure sink, and — only if not already stamped
// upstream — the origin timestamp. The reshape has zeroed all extension
// fields, so skipped stamps read as zero.
func StampUpgrade(up wire.View, seq uint64, nowNanos int64, u Upgrade) {
	feats := up.Features()
	if feats.Has(wire.FeatSequenced) && seq > 0 {
		up.SetSeq(seq)
	}
	if feats.Has(wire.FeatReliable) {
		up.SetRetransmitBuffer(u.Self)
	}
	if feats.Has(wire.FeatAgeTracked) && u.MaxAge > 0 {
		up.SetMaxAge(uint32(u.MaxAge / time.Microsecond))
	}
	if feats.Has(wire.FeatTimely) && u.DeadlineBudget > 0 {
		up.SetDeadline(uint64(nowNanos)+uint64(u.DeadlineBudget), u.DeadlineNotify)
	}
	if feats.Has(wire.FeatBackPressure) {
		if off, err := feats.ExtOffset(wire.FeatBackPressure); err == nil {
			ext := up[wire.CoreHeaderLen+off:]
			copy(ext[:4], u.BackPressureSink.IP[:])
			ext[4] = byte(u.BackPressureSink.Port >> 8)
			ext[5] = byte(u.BackPressureSink.Port)
		}
	}
	if feats.Has(wire.FeatTimestamped) {
		if ts, err := up.OriginTimestamp(); err == nil && ts == 0 {
			up.SetOriginTimestamp(uint64(nowNanos))
		}
	}
}
