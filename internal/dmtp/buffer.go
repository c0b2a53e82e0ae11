package dmtp

import (
	"container/heap"
	"sort"
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
	Refused       uint64 // inserts turned away: seq at or below the newest held
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
	s.Refused += o.Refused
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
	// Tombstone journals one capacity eviction of (exp, seq). The engine
	// evicts an experiment's oldest entry, so nothing of exp at or below
	// seq is held afterwards; internal/journal recycles segments on that.
	Tombstone(exp wire.ExperimentID, seq uint64)
	// TrimTo journals a cumulative-ACK trim: every entry of exp at or
	// below cum is released.
	TrimTo(exp wire.ExperimentID, cum uint64)
}

// DefaultCapacityBytes is a BufferEngine's capacity when its config
// gives none.
const DefaultCapacityBytes = 64 << 20

// BufferConfig configures a BufferEngine.
type BufferConfig struct {
	// CapacityBytes bounds the retransmission buffer; oldest packets
	// are evicted first. Zero means DefaultCapacityBytes.
	CapacityBytes int
	// Release, when non-nil, is called exactly once for every stashed
	// buffer the engine lets go of (eviction, trim, crash). The live
	// adapter returns buffers to its wire.StashLog here, once no queued
	// forward references them; the simulator lets the GC collect clones.
	Release func([]byte)
	// Stats, when non-nil, is where the engine counts; adapters expose
	// it as part of their own stats. Nil allocates a private struct.
	Stats *BufferStats
	// Recorder, when non-nil, receives flight-recorder events (nak-served,
	// nak-miss, evict, trim, crash, restart) stamped with Clock. Recording
	// is lock- and allocation-free; nil disables it entirely. Evictions are
	// recorded per run, not per entry: see evictRun.
	Recorder *metrics.FlightRecorder
	// Clock stamps Recorder events — except the evictions RelayEngine.Handle
	// triggers, which carry Handle's now. Nil defaults to WallClock; the
	// simulator adapter passes its virtual clock so event timestamps align
	// with the trace.
	Clock Clock
	// Journal, when non-nil, receives a write-ahead record for every
	// stash mutation (insert, eviction, trim) so the adapter can rebuild
	// the stash after a crash. Nil disables journaling entirely.
	Journal Journal
}

// stashSlot is one stashed packet.
type stashSlot struct {
	seq uint64
	// stamp is the engine's insertion ordinal: the smallest one held is the
	// next capacity eviction, whichever experiment it belongs to.
	stamp uint64
	pkt   []byte
}

// expStash is everything the engine knows about one experiment: its
// sequence counter and the packets it still holds.
type expStash struct {
	exp  wire.ExperimentID
	next uint64 // last sequence number handed out; RestoreSeq may raise it
	// slots[head:] are the stashed packets in ascending seq, which is also
	// ascending stamp: an insert lands above every older one, and eviction
	// and trim only ever take the front. Holes are allowed (slots carry
	// their seq); the dead prefix below head is reclaimed by a later insert.
	slots []stashSlot
	head  int
	pos   int // index in BufferEngine.oldest while non-empty
}

// held returns the stashed entries, oldest first.
func (st *expStash) held() []stashSlot { return st.slots[st.head:] }

// nextSeq assigns the experiment's next sequence number.
func (st *expStash) nextSeq() uint64 {
	st.next++
	return st.next
}

// evictHeap orders the non-empty experiments by their front slot's stamp
// (container/heap), so the shard's oldest entry is its root's front. Swap
// keeps each member's pos; whoever pushes one sets its pos first.
type evictHeap []*expStash

func (h evictHeap) Len() int { return len(h) }
func (h evictHeap) Less(i, j int) bool {
	return h[i].slots[h[i].head].stamp < h[j].slots[h[j].head].stamp
}
func (h evictHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *evictHeap) Push(x any) { *h = append(*h, x.(*expStash)) }
func (h *evictHeap) Pop() any {
	st := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return st
}

// evictRun is a run of capacity evictions that share one now, held in
// plain fields while it grows and recorded as one EvEvict: Seq the first
// victim's sequence, Aux the entries evicted, Exp the victims' experiment
// (0 when the run spans several). Recording per entry would put the
// recorder's locked instructions on every insert of a full stash. A run is
// recorded when an eviction arrives with another now, before any other
// event the engine records, when Stats is read and when the adapter ends
// a lock hold (RelayEngine.RecordPending), so the evict events of an
// unwrapped ring sum to BufferStats.Evicted whenever anyone reads it.
type evictRun struct {
	at  int64
	exp wire.ExperimentID
	seq uint64
	n   uint64 // entries; 0 when no run is pending
}

// EvictRunBias exists solely so the campaign self-test can prove its
// flight oracle counts eviction runs: a nonzero bias is added to every
// recorded run's entry count, which must make that oracle fire. It must be
// zero outside that self-test.
var EvictRunBias uint64

// BufferEngine is the retransmission-buffer state machine shared by the
// simulator's BufferNode and the live Relay: per-experiment sequence
// assignment, a FIFO-evicted stash that owns its entries, NAK service,
// cumulative-ACK trim, and crash/restart. The stash is one ascending run
// per experiment and nothing else: occupancy per experiment, the trim
// floor (slots[head].seq − 1) and "is seq buffered" are read off it. Like
// ReceiverEngine it is not self-synchronizing; the adapter serializes
// access.
type BufferEngine struct {
	cfg   BufferConfig
	dp    Datapath
	stats *BufferStats

	exps   map[wire.ExperimentID]*expStash
	oldest evictHeap // the non-empty experiments
	stamp  uint64    // last insertion ordinal handed out
	bytes  int
	down   bool // crashed: adapters discard traffic until Restart
	evicts evictRun
}

// NewBufferEngine builds an engine over the given datapath.
func NewBufferEngine(dp Datapath, cfg BufferConfig) *BufferEngine {
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = DefaultCapacityBytes
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
		exps:  make(map[wire.ExperimentID]*expStash),
	}
}

// Stats returns a snapshot of the engine counters, recording the pending
// eviction run first.
func (b *BufferEngine) Stats() BufferStats {
	b.flushEvicts()
	return *b.stats
}

// BufferedBytes returns current buffer occupancy.
func (b *BufferEngine) BufferedBytes() int { return b.bytes }

// expFor returns exp's record, creating it on first use: for the calls
// that sequence or stash. A record, once created, is never replaced or
// deleted, so a caller may keep the pointer (RelayEngine's flows do).
func (b *BufferEngine) expFor(exp wire.ExperimentID) *expStash {
	st := b.exps[exp]
	if st == nil {
		st = &expStash{exp: exp}
		b.exps[exp] = st
	}
	return st
}

// lookup returns exp's record without creating one: for queries and for
// ACKs and NAKs, which are outside input and must not grow the table. An
// experiment the engine has never seen reads as an empty record.
func (b *BufferEngine) lookup(exp wire.ExperimentID) *expStash {
	if st := b.exps[exp]; st != nil {
		return st
	}
	return &expStash{}
}

// NextSeq assigns the next sequence number for the experiment.
func (b *BufferEngine) NextSeq(exp wire.ExperimentID) uint64 { return b.expFor(exp).nextSeq() }

// SeqOf returns the last sequence number assigned to exp, zero if none.
// Oracles use it to check which experiments an upgrader actually
// sequenced (a delivery for an experiment with SeqOf == 0 means
// sequence state bled across flows).
func (b *BufferEngine) SeqOf(exp wire.ExperimentID) uint64 { return b.lookup(exp).next }

// release lets go of st's n oldest entries and restores st's place in the
// eviction heap. Every stashed buffer leaves the engine through here —
// eviction, trim, crash — so the byte accounting and the Release hook
// happen once.
func (b *BufferEngine) release(st *expStash, n int) {
	gone := st.held()[:n]
	for _, s := range gone {
		b.bytes -= len(s.pkt)
		if b.cfg.Release != nil {
			b.cfg.Release(s.pkt)
		}
		b.stats.ReleasedBytes += uint64(len(s.pkt))
	}
	clear(gone)
	st.head += n
	if len(st.held()) == 0 {
		heap.Remove(&b.oldest, st.pos)
	} else {
		heap.Fix(&b.oldest, st.pos)
	}
}

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
		b.flushEvicts()
		b.cfg.Recorder.RecordAt(b.cfg.Clock.Now(), metrics.EvCrash, 0, 0, uint64(b.bytes))
	}
	for len(b.oldest) > 0 {
		b.release(b.oldest[0], len(b.oldest[0].held()))
	}
}

// Restart brings a crashed engine back into service with a cold buffer.
func (b *BufferEngine) Restart() {
	b.down = false
	if b.cfg.Recorder != nil {
		b.flushEvicts()
		b.cfg.Recorder.RecordAt(b.cfg.Clock.Now(), metrics.EvRestart, 0, 0, 0)
	}
}

// eventNow is the clock reading that stamps a call's Recorder events; with
// no Recorder it reads nothing.
func (b *BufferEngine) eventNow() int64 {
	if b.cfg.Recorder == nil {
		return 0
	}
	return b.cfg.Clock.Now()
}

// Down reports whether the engine is crashed.
func (b *BufferEngine) Down() bool { return b.down }

// Stash takes ownership of pkt and retains it for retransmission until
// capacity eviction, a cumulative-ACK trim, or a crash releases it.
// Callers whose packet buffers have other owners must pass a copy —
// downstream elements mutate headers in flight (age, back-pressure
// level), and the buffer must retransmit the packet as it left here.
//
// Sequence numbers ascend per experiment. A seq at or below the newest
// one exp still holds is refused: Stash returns false, counts
// BufferStats.Refused, and pkt stays the caller's. A seq further ahead
// than newest+1 is accepted and leaves a hole.
func (b *BufferEngine) Stash(exp wire.ExperimentID, seq uint64, pkt []byte) bool {
	return b.stash(b.expFor(exp), seq, pkt, b.eventNow())
}

// stash is Stash into a run the caller already holds; now stamps the
// evictions it triggers.
func (b *BufferEngine) stash(st *expStash, seq uint64, pkt []byte, now int64) bool {
	ok := b.restore(st, seq, pkt, now)
	if ok && b.cfg.Journal != nil {
		b.cfg.Journal.Append(st.exp, seq, pkt)
	}
	return ok
}

// RestoreStash is Stash without the journal append: it re-inserts a
// journal-recovered entry, whose record is already on disk. Capacity
// evictions triggered by the restore still journal their tombstones,
// keeping the log consistent with the rebuilt stash. Lost records just
// leave holes; a record that does not ascend is refused like any other.
func (b *BufferEngine) RestoreStash(exp wire.ExperimentID, seq uint64, pkt []byte) bool {
	return b.restore(b.expFor(exp), seq, pkt, b.eventNow())
}

// restore is RestoreStash into a run the caller already holds; now stamps
// the evictions it triggers, so a burst's inserts read the clock once.
func (b *BufferEngine) restore(st *expStash, seq uint64, pkt []byte, now int64) bool {
	if held := st.held(); len(held) > 0 && seq <= held[len(held)-1].seq {
		b.stats.Refused++
		return false
	}
	for b.bytes+len(pkt) > b.cfg.CapacityBytes && len(b.oldest) > 0 {
		victim := b.oldest[0]
		old := victim.held()[0]
		b.release(victim, 1)
		b.stats.Evicted++
		if b.cfg.Journal != nil {
			b.cfg.Journal.Tombstone(victim.exp, old.seq)
		}
		if b.cfg.Recorder != nil {
			b.noteEvict(now, victim.exp, old.seq)
		}
	}
	// Reclaim the dead prefix only once it is half a full slice, so a
	// steady window neither grows nor copies per packet.
	if len(st.slots) == cap(st.slots) && st.head*2 >= len(st.slots) {
		st.slots = st.slots[:copy(st.slots, st.slots[st.head:])]
		st.head = 0
	}
	b.stamp++
	st.slots = append(st.slots, stashSlot{seq: seq, stamp: b.stamp, pkt: pkt})
	if len(st.held()) == 1 {
		st.pos = len(b.oldest)
		heap.Push(&b.oldest, st)
	}
	b.bytes += len(pkt)
	b.stats.Buffered++
	b.stats.BufferedBytes += uint64(len(pkt))
	return true
}

// noteEvict adds the eviction of (exp, seq) at now to the pending run,
// recording the run first when it holds evictions of another now.
func (b *BufferEngine) noteEvict(now int64, exp wire.ExperimentID, seq uint64) {
	r := &b.evicts
	if r.n > 0 && r.at != now {
		b.flushEvicts()
	}
	switch {
	case r.n == 0:
		*r = evictRun{at: now, exp: exp, seq: seq}
	case r.exp != exp:
		r.exp = 0
	}
	r.n++
}

// flushEvicts records the pending eviction run, if any, stamped with its
// now.
func (b *BufferEngine) flushEvicts() {
	if r := b.evicts; r.n > 0 {
		b.evicts.n = 0
		b.cfg.Recorder.RecordAt(r.at, metrics.EvEvict, uint64(r.exp), r.seq, r.n+EvictRunBias)
	}
}

// RestoreSeq raises exp's sequence-assignment counter to at least seq.
// Restart recovery calls it with the journal's sequence floor so a
// restarted relay never re-assigns a sequence number it already used.
func (b *BufferEngine) RestoreSeq(exp wire.ExperimentID, seq uint64) {
	st := b.expFor(exp)
	st.next = max(st.next, seq)
}

// ServeNAK retransmits the requested sequence numbers still buffered,
// directly to the requester. The engine retains ownership of the stash
// entries (Datapath.SendData contract). A NAK is outside input and can
// name the whole sequence space: it gets at most DefaultMaxSeqJump
// lookups, and what it names beyond them is missed unvisited.
func (b *BufferEngine) ServeNAK(nak *wire.NAK) {
	b.stats.NAKs++
	held := b.lookup(nak.Experiment).held()
	var served uint64
	budget := DefaultMaxSeqJump
	for _, r := range nak.Ranges {
		// held ascends, so one search finds the range's first candidate and
		// the walk below keeps held[i].seq >= seq from there.
		i := sort.Search(len(held), func(i int) bool { return held[i].seq >= r.From })
		for seq := r.From; seq <= r.To && budget > 0; seq++ {
			budget--
			if i < len(held) && held[i].seq == seq {
				if v := wire.View(held[i].pkt); v.TraceSampled() {
					// Stash entries are engine-owned, so stamping in place is
					// safe on both substrates; the reshape→rtx stamp gap makes
					// stash residency visible in the reconstructed span tree.
					_ = v.AppendHopStamp(wire.TraceHopRetransmit, b.cfg.Clock.Now())
				}
				b.dp.SendData(nak.Requester, held[i].pkt)
				b.stats.Retransmits++
				served++
				i++
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
		b.flushEvicts()
		now := b.cfg.Clock.Now()
		b.cfg.Recorder.RecordAt(now, metrics.EvNAKServed,
			uint64(nak.Experiment), nak.Ranges[0].From, served)
		if missed > 0 {
			b.cfg.Recorder.RecordAt(now, metrics.EvNAKMiss,
				uint64(nak.Experiment), nak.Ranges[0].From, missed)
		}
	}
}

// Trim drops exp's buffered packets up to and including cum, releasing
// them: work in proportion to what it releases, whatever else the shard
// holds.
func (b *BufferEngine) Trim(exp wire.ExperimentID, cum uint64) {
	st := b.lookup(exp)
	held := st.held()
	n := sort.Search(len(held), func(i int) bool { return held[i].seq > cum })
	if n > 0 {
		b.release(st, n)
		b.stats.Trimmed += uint64(n)
	}
	if b.cfg.Journal != nil {
		b.cfg.Journal.TrimTo(exp, cum)
	}
	if n > 0 && b.cfg.Recorder != nil {
		b.flushEvicts()
		b.cfg.Recorder.RecordAt(b.cfg.Clock.Now(), metrics.EvTrim, uint64(exp), cum, uint64(n))
	}
}

// Upgrade describes the header fields a buffering element stamps into a
// packet it upgrades into a richer mode. StampUpgrade is the one
// definition of the stamped bytes: RelayEngine, which both substrates
// drive, compiles its upgrade recipes from it, so the installed header
// bytes cannot drift apart.
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
//
// RelayEngine does not call it per packet: it compiles its upgrade recipes
// from it (wire.CompileReshape runs it on probe headers once per pair of
// feature sets). So every byte it writes must stay what that contract
// allows: a constant, a byte of the reshaped packet, or one of the three
// per-packet fields (sequence number, deadline, origin timestamp).
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
		// A level set upstream survives the reshape; only the sink is ours.
		bp, _ := up.BackPressure()
		bp.Sink = u.BackPressureSink
		up.SetBackPressure(bp)
	}
	if feats.Has(wire.FeatTimestamped) {
		if ts, err := up.OriginTimestamp(); err == nil && ts == 0 {
			up.SetOriginTimestamp(uint64(nowNanos))
		}
	}
}
