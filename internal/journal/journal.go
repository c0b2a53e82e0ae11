// Package journal is the relay stash's write-ahead log: an asynchronous,
// segment-file journal that lets a restarted relay resume NAK service
// with a warm retransmission buffer instead of today's bounded-loss cold
// start.
//
// One Journal serves one buffer shard, and one byte buffer — the stage —
// is its only queue. The hot path (Append / Tombstone / TrimTo, called
// under the relay lock) frames a CRC-32C-protected record straight onto
// the stage under a small mutex: one copy, no file I/O, no fsync, no
// allocation, and no hand-off to another goroutine. The writer goroutine
// takes the whole stage by swapping it for its spare, writes the take
// with one file write per segment it touches, fsyncs once per take
// (policy "batch"; "none" leaves flushing to the OS), and comes back for
// whatever accumulated meanwhile — group commit sized by the disk, not
// by a constant. A full stage blocks the hot path until the next take
// (dmtp.journal.append_blocked_ns counts the wait). Segments roll at a
// size bound and are deleted ("recycled") once every entry they hold has
// been released — trimmed by a cumulative ACK or evicted — after counter
// floors are re-journalled so sequence numbering never regresses across
// a recycle.
//
// Recovery is Open (scan all segments, truncating a torn tail in the
// final one) or Replay (re-scan a live journal after an in-process
// crash); both return the surviving entries in append order plus the
// per-experiment sequence floors, ready to be restored into a
// dmtp.BufferEngine via RestoreStash / RestoreSeq.
package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Sync policies: when the writer goroutine calls fsync.
const (
	// SyncBatch group-commits: one fsync per take — everything staged while
	// the previous take was being written. The default.
	SyncBatch = "batch"
	// SyncNone never fsyncs (the OS flushes on its own schedule).
	// Survives process crashes — every record is written before a
	// Flush-barriered replay reads — but not machine crashes.
	SyncNone = "none"
)

// DefaultSegmentBytes is the segment roll threshold when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 4 << 20

// stageBytes bounds the stage: a record that would grow a non-empty stage
// past it blocks the hot path (back-pressure, not loss) until the writer
// takes the stage. It is what a stalled disk may hold of the datapath
// before the relay feels it. A byte bound because memory and stall time
// are in bytes: the 8192-record channel it replaces held about 2.6 MB of
// flows64's 317-byte records but 60 MB of dmtp-send's 7.6 KB ones. 2 MiB
// keeps the small-packet headroom (about 6600 and 270 of those) at two
// fixed buffers per shard, and a writer that needs 5 ms per fsync still
// drains 400 MB/s.
const stageBytes = 2 << 20

// fsync is how the writer makes a segment durable; tests swap it to hold
// the writer inside a slow disk.
var fsync = (*os.File).Sync

// ReplayDropBias deliberately breaks replay for oracle self-tests: when
// positive, every ReplayDropBias'th surviving append record is silently
// skipped during recovery while still being counted as appended —
// exactly the bookkeeping bug the campaign's journal-balance oracle
// (appended − tombstoned == replayed) must catch. Zero (always, outside
// self-tests) replays faithfully.
var ReplayDropBias int

// Options configures one shard's journal.
type Options struct {
	// Dir is the directory holding the segment files (created if
	// missing). All shards of one relay share a Dir; filenames carry the
	// shard number.
	Dir string
	// Shard is this journal's shard index (stamped into filenames and
	// segment headers).
	Shard int
	// Sync is the fsync policy: SyncBatch (default when empty) or SyncNone.
	Sync string
	// SegmentBytes rolls the active segment once it exceeds this size;
	// zero means DefaultSegmentBytes.
	SegmentBytes int
}

// Stats are one journal's cumulative counters (atomically updated, safe
// to read concurrently). Set.Stats sums them across shards.
type Stats struct {
	// Appends is stash-insert records journalled.
	Appends uint64
	// AppendBytes is payload bytes journalled by those appends.
	AppendBytes uint64
	// Tombstones is release records journalled (capacity evictions plus
	// cumulative-ACK trims).
	Tombstones uint64
	// Fsyncs is fsync calls issued by the writer.
	Fsyncs uint64
	// SegmentsRecycled is segment files deleted once every entry in them
	// was trimmed or evicted.
	SegmentsRecycled uint64
	// Replayed is stash entries rebuilt by Open and Replay combined.
	Replayed uint64
	// TruncatedTails is torn final-segment tails truncated by Open.
	TruncatedTails uint64
	// WriteErrors is failed segment writes, fsyncs, closes and opens: each
	// one is durability the journal promised and did not deliver (ENOSPC, a
	// dying disk). The writer carries on; recovery then sees a shorter log.
	WriteErrors uint64
	// AppendBlockedNs is the cumulative time the hot path waited for room
	// on a full stage: the share of the relay loop the disk was holding.
	AppendBlockedNs uint64
}

// sealedSeg is a no-longer-active segment awaiting recycling.
type sealedSeg struct {
	index uint64
	// expMax is the highest appended sequence per experiment in the
	// segment; the segment recycles once the released floor covers them all.
	expMax map[wire.ExperimentID]uint64
}

// Journal is one shard's write-ahead log. The record-producing methods
// (Append, Tombstone, TrimTo) must be called from the shard's serialised
// context (the same discipline dmtp.BufferEngine requires); Flush,
// Replay, Stats, Pending and Close are safe from any goroutine.
type Journal struct {
	opts Options

	appends     atomic.Uint64
	appendBytes atomic.Uint64
	tombstones  atomic.Uint64
	fsyncs      atomic.Uint64
	recycled    atomic.Uint64
	replayed    atomic.Uint64
	tornTails   atomic.Uint64
	writeErrs   atomic.Uint64
	blockedNs   atomic.Uint64
	// fsyncHist, when installed by RegisterMetrics, receives per-fsync
	// latency observations.
	fsyncHist atomic.Pointer[metrics.Histogram]

	// lastTrim dedupes TrimTo records; touched only from the shard's
	// serialised caller context.
	lastTrim map[wire.ExperimentID]uint64

	// mu guards stage, staged, written and closed. cond (on mu) is
	// broadcast at every change somebody may be waiting for: a record
	// staged onto an empty stage (the writer), the stage taken (a blocked
	// hot path), a take written (Flush), closed (all of them).
	mu   sync.Mutex
	cond sync.Cond
	// stage holds the framed records the writer has not taken yet, back to
	// back.
	stage []byte
	// staged and written count records ever framed onto the stage and
	// records the writer has put into a segment file; the difference is
	// Pending, and written catching up with staged is the Flush barrier.
	staged, written uint64
	closed          bool

	// wg waits for the writer; closeOnce guards double-Close; closeErr is
	// the writer's shutdown outcome.
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	// Writer-goroutine state (plus initial setup in Open).
	f         *os.File
	segIndex  uint64
	segBytes  int
	segExpMax map[wire.ExperimentID]uint64
	sealed    []sealedSeg
	// released is, per experiment, the sequence at or below which the stash
	// holds nothing any more: the higher of the cumulative-ACK trim floor
	// and the highest evicted sequence (the stash releases each
	// experiment's run from the front, so a tombstone for seq vouches for
	// everything below it). Sealed segments recycle against it. trimFloor
	// and seqFloor are what RecFloors carries across a recycle.
	released  map[wire.ExperimentID]uint64
	trimFloor map[wire.ExperimentID]uint64
	seqFloor  map[wire.ExperimentID]uint64
}

// Open recovers the shard's journal from disk and starts its writer.
// Existing segments are scanned in order: a short or CRC-failing record
// at the tail of the final segment is a torn write and is truncated
// away; the same anywhere else is corruption and fails the open. The
// returned Recovered holds the surviving stash entries (append order)
// and per-experiment sequence floors to restore into the buffer engine.
// A fresh active segment is started after the newest existing one.
func Open(opts Options) (*Journal, *Recovered, error) {
	if opts.Sync == "" {
		opts.Sync = SyncBatch
	}
	switch opts.Sync {
	case SyncBatch, SyncNone:
	default:
		return nil, nil, fmt.Errorf("journal: unknown sync policy %q (valid: batch, none)", opts.Sync)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}

	j := &Journal{
		opts:      opts,
		lastTrim:  make(map[wire.ExperimentID]uint64),
		stage:     make([]byte, 0, stageBytes),
		segExpMax: make(map[wire.ExperimentID]uint64),
		released:  make(map[wire.ExperimentID]uint64),
		trimFloor: make(map[wire.ExperimentID]uint64),
		seqFloor:  make(map[wire.ExperimentID]uint64),
	}
	j.cond.L = &j.mu

	segs, err := j.listSegments()
	if err != nil {
		return nil, nil, err
	}
	rec, err := j.recoverSegments(segs, true)
	if err != nil {
		return nil, nil, err
	}
	j.replayed.Add(rec.Replayed)

	// Every pre-existing segment is sealed; recycling bookkeeping resumes
	// from the recovered floors.
	for exp, seq := range rec.Seqs {
		j.seqFloor[exp] = seq
	}
	for exp, cum := range rec.Trims {
		j.trimFloor[exp] = cum
		j.lastTrim[exp] = cum
		j.released[exp] = max(j.released[exp], cum)
	}

	next := uint64(0)
	if len(segs) > 0 {
		next = segs[len(segs)-1].index + 1
	}
	if err := j.openSegment(next); err != nil {
		return nil, nil, err
	}
	j.recycleSealed()

	j.wg.Add(1)
	go j.run(make([]byte, 0, stageBytes))
	return j, rec, nil
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	return Stats{
		Appends:          j.appends.Load(),
		AppendBytes:      j.appendBytes.Load(),
		Tombstones:       j.tombstones.Load(),
		Fsyncs:           j.fsyncs.Load(),
		SegmentsRecycled: j.recycled.Load(),
		Replayed:         j.replayed.Load(),
		TruncatedTails:   j.tornTails.Load(),
		WriteErrors:      j.writeErrs.Load(),
		AppendBlockedNs:  j.blockedNs.Load(),
	}
}

// Pending returns the journal's flush lag: records staged but not yet in
// the segment file — the stage's, plus the take the writer is working on.
// Exposed as the dmtp.journal.pending gauge — sustained growth means the
// writer (typically its fsyncs) cannot keep up with the stash rate.
func (j *Journal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return int(j.staged - j.written)
}

// put frames one record onto the stage, first waiting for the writer to
// take the stage if the record does not fit. The clock is read only on
// that blocked path. A record offered to a closed journal is counted as a
// write error and dropped.
func (j *Journal) put(typ byte, exp wire.ExperimentID, seq uint64, payload []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	full := func() bool {
		return len(j.stage) > 0 && len(j.stage)+RecOverhead+len(payload) > stageBytes && !j.closed
	}
	if full() {
		start := time.Now()
		for full() {
			j.cond.Wait()
		}
		j.blockedNs.Add(uint64(time.Since(start)))
	}
	if j.closed {
		j.writeErrs.Add(1)
		return
	}
	if len(j.stage) == 0 {
		j.cond.Broadcast() // the writer may be waiting for work
	}
	j.stage = appendRecord(j.stage, typ, exp, seq, payload)
	j.staged++
}

// Append journals one stash insert. The packet is copied onto the stage,
// so the stash keeps exclusive ownership of pkt.
func (j *Journal) Append(exp wire.ExperimentID, seq uint64, pkt []byte) {
	j.appends.Add(1)
	j.appendBytes.Add(uint64(len(pkt)))
	j.put(RecAppend, exp, seq, pkt)
}

// Tombstone journals one capacity eviction. Evictions take an
// experiment's oldest entry, so the writer also reads it as "nothing of
// exp at or below seq is held any more" when it recycles segments.
func (j *Journal) Tombstone(exp wire.ExperimentID, seq uint64) {
	j.tombstones.Add(1)
	j.put(RecTombstone, exp, seq, nil)
}

// TrimTo journals one cumulative-ACK trim. Trims that do not advance the
// experiment's floor are deduped away (the receiver re-ACKs every
// interval).
func (j *Journal) TrimTo(exp wire.ExperimentID, cum uint64) {
	if cum <= j.lastTrim[exp] {
		return
	}
	j.lastTrim[exp] = cum
	j.tombstones.Add(1)
	j.put(RecTrim, exp, cum, nil)
}

// Flush blocks until every record staged before the call has been
// written to a segment file (not necessarily fsynced). The
// crash-consistency barrier: an in-process Crash flushes before Replay,
// modelling that the OS had the writes even though the process died.
// Allocation-free, so alloc-gated tests can barrier the writer inside a
// measured loop.
func (j *Journal) Flush() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for target := j.staged; j.written < target; {
		j.cond.Wait()
	}
}

// Replay flushes, then re-scans every segment on disk and returns the
// recovery state — what a fresh process would reconstruct. The caller
// must be quiescent (no concurrent Append/Tombstone/TrimTo): the
// restart path holds the shard down while it replays.
func (j *Journal) Replay() (*Recovered, error) {
	j.Flush()
	segs, err := j.listSegments()
	if err != nil {
		return nil, err
	}
	rec, err := j.recoverSegments(segs, false)
	if err != nil {
		return nil, err
	}
	j.replayed.Add(rec.Replayed)
	return rec, nil
}

// Close drains and stops the writer, fsyncs, and closes the active
// segment. The journal is unusable afterwards: a record offered to it is
// dropped and counted in WriteErrors, and a hot path blocked on a full
// stage is let go the same way.
func (j *Journal) Close() error {
	j.closeOnce.Do(func() {
		j.mu.Lock()
		j.closed = true
		j.cond.Broadcast()
		j.mu.Unlock()
		j.wg.Wait()
		j.closeErr = j.f.Close()
	})
	return j.closeErr
}

// segFileName renders the canonical segment filename for (shard, index).
func segFileName(shard int, index uint64) string {
	return fmt.Sprintf("shard%03d-%016x.seg", shard, index)
}

// segRef locates one on-disk segment.
type segRef struct {
	path  string
	index uint64
}

// listSegments enumerates this shard's segment files in index order.
func (j *Journal) listSegments() ([]segRef, error) {
	entries, err := os.ReadDir(j.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	prefix := fmt.Sprintf("shard%03d-", j.opts.Shard)
	var segs []segRef
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var idx uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(name[len(prefix):], ".seg"), "%016x", &idx); err != nil {
			return nil, fmt.Errorf("journal: unparseable segment name %q", name)
		}
		segs = append(segs, segRef{path: filepath.Join(j.opts.Dir, name), index: idx})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].index < segs[b].index })
	return segs, nil
}

// openSegment creates and activates segment index, writing its header.
func (j *Journal) openSegment(index uint64) error {
	f, err := os.OpenFile(filepath.Join(j.opts.Dir, segFileName(j.opts.Shard, index)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(segHeader(j.opts.Shard, index)); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.segIndex = index
	j.segBytes = SegHeaderLen
	j.segExpMax = make(map[wire.ExperimentID]uint64)
	return nil
}

// run is the writer goroutine: take the whole stage, write it, come back
// for whatever was staged meanwhile, and park only on an empty stage.
// spare is the buffer it swaps in; the two change places on every take,
// so the steady state allocates nothing and the ingest-path alloc gates
// hold with journaling enabled. Close lets it drain, then fsync and exit.
func (j *Journal) run(spare []byte) {
	defer j.wg.Done()
	j.mu.Lock()
	for {
		for len(j.stage) == 0 && !j.closed {
			j.cond.Wait()
		}
		if len(j.stage) == 0 {
			break
		}
		take, upTo := j.stage, j.staged
		j.stage = spare[:0]
		j.cond.Broadcast() // a blocked hot path finds a whole empty stage
		j.mu.Unlock()
		j.writeTake(take)
		spare = take
		j.mu.Lock()
		j.written = upTo
		j.cond.Broadcast() // Flush barriers
	}
	j.mu.Unlock()
	j.sync()
}

// writeTake puts one take — whole records, back to back — into the
// journal: it walks the records once for bookkeep, cuts the take where a
// record carries the active segment to SegmentBytes (write, roll, carry
// on in the next segment), so each segment the take touches gets one
// write, then applies the sync policy once and recycles.
func (j *Journal) writeTake(take []byte) {
	from, stuck := 0, false
	for off := 0; off < len(take); {
		end := off + RecOverhead + int(binary.BigEndian.Uint32(take[off+13:]))
		j.bookkeep(take[off:end])
		off = end
		// A roll that failed leaves the segment over its bound; the next
		// take retries, not the next record.
		if j.segBytes+off-from >= j.opts.SegmentBytes && !stuck {
			j.write(take[from:off])
			from = off
			stuck = !j.roll()
		}
	}
	if from < len(take) {
		j.write(take[from:])
	}
	if j.opts.Sync == SyncBatch {
		j.sync()
	}
	j.recycleSealed()
}

// write appends buf to the active segment. An error is counted, not
// returned — journalling is best-effort durability on top of a protocol
// whose recovery already tolerates a cold stash — and the segment
// accounting stays consistent either way.
func (j *Journal) write(buf []byte) {
	n, err := j.f.Write(buf)
	j.segBytes += n
	if err != nil {
		j.writeErrs.Add(1)
	}
}

// sync fsyncs the active segment, timing the call into the installed
// latency histogram.
func (j *Journal) sync() {
	start := time.Now()
	if err := fsync(j.f); err != nil {
		j.writeErrs.Add(1)
		return
	}
	j.fsyncs.Add(1)
	if h := j.fsyncHist.Load(); h != nil {
		h.Observe(time.Since(start).Nanoseconds())
	}
}

// bookkeep updates the writer's recycling state from one framed record.
func (j *Journal) bookkeep(rec []byte) {
	exp := wire.ExperimentID(binary.BigEndian.Uint32(rec[1:5]))
	seq := binary.BigEndian.Uint64(rec[5:13])
	switch rec[0] {
	case RecAppend:
		j.segExpMax[exp] = max(j.segExpMax[exp], seq)
		j.seqFloor[exp] = max(j.seqFloor[exp], seq)
	case RecTombstone:
		j.released[exp] = max(j.released[exp], seq)
	case RecTrim:
		j.trimFloor[exp] = max(j.trimFloor[exp], seq)
		j.released[exp] = max(j.released[exp], seq)
	}
}

// roll seals the active segment (fsync unless SyncNone, then close) and
// opens the next one, reporting whether it did.
func (j *Journal) roll() bool {
	if j.opts.Sync != SyncNone {
		j.sync()
	}
	if err := j.f.Close(); err != nil {
		j.writeErrs.Add(1)
	}
	j.sealed = append(j.sealed, sealedSeg{index: j.segIndex, expMax: j.segExpMax})
	err := j.openSegment(j.segIndex + 1)
	if err != nil {
		j.writeErrs.Add(1)
		// Reopen the sealed segment for append so the journal stays
		// writable; the next roll retries.
		f, ferr := os.OpenFile(filepath.Join(j.opts.Dir, segFileName(j.opts.Shard, j.segIndex)),
			os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr == nil {
			j.f = f
			j.sealed = j.sealed[:len(j.sealed)-1]
		}
	}
	return err == nil
}

// recycleSealed deletes sealed segments whose every appended entry has
// been released (trimmed or evicted), first re-journalling the counter
// floors of the experiments they held so a later replay cannot regress
// sequence numbering.
func (j *Journal) recycleSealed() {
	for len(j.sealed) > 0 {
		seg := j.sealed[0]
		for exp, top := range seg.expMax {
			if j.released[exp] < top {
				return
			}
		}
		var floors []byte
		for exp := range seg.expMax {
			var tf [8]byte
			binary.BigEndian.PutUint64(tf[:], j.trimFloor[exp])
			floors = appendRecord(floors, RecFloors, exp, j.seqFloor[exp], tf[:])
		}
		j.write(floors)
		if j.opts.Sync != SyncNone {
			j.sync()
		}
		if err := os.Remove(filepath.Join(j.opts.Dir, segFileName(j.opts.Shard, seg.index))); err == nil {
			j.recycled.Add(1)
		}
		j.sealed = j.sealed[1:]
	}
}
