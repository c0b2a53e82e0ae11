// Package journal is the relay stash's write-ahead log: an asynchronous,
// segment-file journal that lets a restarted relay resume NAK service
// with a warm retransmission buffer instead of today's bounded-loss cold
// start.
//
// One Journal serves one buffer shard. The hot path (Append / Tombstone /
// TrimTo, called under the relay lock) frames a CRC-32C-protected record
// into a pooled buffer and hands it to a writer goroutine — no file I/O,
// no fsync, and no allocation on the ingest path. The writer drains
// records in batches, writes them with one coalesced file write, and
// group-commits with a single fsync per drained batch (policy "batch";
// "none" and "always" are available). Segments roll at a size bound and
// are deleted ("recycled") once the cumulative-ACK trim floor passes
// every entry they hold, after counter floors are re-journalled so
// sequence numbering never regresses across a recycle.
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
	// SyncBatch group-commits: one fsync per drained batch of records —
	// the default, amortising fsync cost across the batch.
	SyncBatch = "batch"
	// SyncNone never fsyncs (the OS flushes on its own schedule).
	// Survives process crashes — every record is written before a
	// Flush-barriered replay reads — but not machine crashes.
	SyncNone = "none"
	// SyncAlways fsyncs after every record: maximum durability, one
	// fsync per stash insert.
	SyncAlways = "always"
)

// DefaultSegmentBytes is the segment roll threshold when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 4 << 20

// queueDepth bounds the hot-path → writer channel; a full queue blocks
// Append (back-pressure) rather than dropping records.
const queueDepth = 8192

// batchMax bounds how many staged records one writer drain coalesces
// into a single file write (and, under SyncBatch, one fsync).
const batchMax = 256

// wbufCap is the writer's coalescing buffer capacity, allocated once;
// batches larger than it are written in wbufCap-sized chunks so the
// steady state never grows the buffer.
const wbufCap = 256 << 10

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
	// Sync is the fsync policy: SyncBatch (default when empty), SyncNone,
	// or SyncAlways.
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
	// SegmentsRecycled is fully-trimmed segment files deleted.
	SegmentsRecycled uint64
	// Replayed is stash entries rebuilt by Open and Replay combined.
	Replayed uint64
	// TruncatedTails is torn final-segment tails truncated by Open.
	TruncatedTails uint64
	// WriteErrors is failed segment writes, fsyncs, closes and opens: each
	// one is durability the journal promised and did not deliver (ENOSPC, a
	// dying disk). The writer carries on; recovery then sees a shorter log.
	WriteErrors uint64
}

// sealedSeg is a no-longer-active segment awaiting recycling.
type sealedSeg struct {
	index uint64
	// expMax is the highest appended sequence per experiment in the
	// segment; the segment recycles once the trim floor covers them all.
	expMax map[wire.ExperimentID]uint64
}

// Journal is one shard's write-ahead log. The record-producing methods
// (Append, Tombstone, TrimTo) must be called from the shard's serialised
// context (the same discipline dmtp.BufferEngine requires); Flush,
// Replay, Stats and Close are safe from any goroutine.
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
	// fsyncHist, when installed by RegisterMetrics, receives per-fsync
	// latency observations.
	fsyncHist atomic.Pointer[metrics.Histogram]

	// lastTrim dedupes TrimTo records; touched only from the shard's
	// serialised caller context.
	lastTrim map[wire.ExperimentID]uint64

	in       chan []byte
	flushMu  sync.Mutex
	flushReq chan struct{}
	flushAck chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup

	// closeOnce guards double-Close; closeErr is the writer's shutdown
	// outcome.
	closeOnce sync.Once
	closeErr  error

	// Writer-goroutine state (plus initial setup in Open).
	f         *os.File
	segIndex  uint64
	segBytes  int
	segExpMax map[wire.ExperimentID]uint64
	sealed    []sealedSeg
	trimFloor map[wire.ExperimentID]uint64
	seqFloor  map[wire.ExperimentID]uint64
	batch     [][]byte
	wbuf      []byte
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
	case SyncBatch, SyncNone, SyncAlways:
	default:
		return nil, nil, fmt.Errorf("journal: unknown sync policy %q (valid: batch, none, always)", opts.Sync)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}

	j := &Journal{
		opts:     opts,
		lastTrim: make(map[wire.ExperimentID]uint64),
		in:       make(chan []byte, queueDepth),
		flushReq: make(chan struct{}),
		// Buffered so the writer's ack never blocks even if the flusher
		// abandoned the wait because the journal closed underneath it.
		flushAck:  make(chan struct{}, 1),
		done:      make(chan struct{}),
		segExpMax: make(map[wire.ExperimentID]uint64),
		trimFloor: make(map[wire.ExperimentID]uint64),
		seqFloor:  make(map[wire.ExperimentID]uint64),
		batch:     make([][]byte, 0, batchMax),
		wbuf:      make([]byte, 0, wbufCap),
	}

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
	go j.run()
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
	}
}

// Pending returns the journal's flush lag: records enqueued to the
// writer goroutine but not yet drained into the segment file. Exposed as
// the dmtp.journal.pending gauge — sustained growth means the writer
// (typically its fsyncs) cannot keep up with the stash rate.
func (j *Journal) Pending() int { return len(j.in) }

// Append journals one stash insert. It frames the record into a pooled
// buffer and enqueues it for the writer; the packet itself is copied
// into the frame, so the stash keeps exclusive ownership of pkt.
func (j *Journal) Append(exp wire.ExperimentID, seq uint64, pkt []byte) {
	j.appends.Add(1)
	j.appendBytes.Add(uint64(len(pkt)))
	j.in <- frameRecord(RecAppend, exp, seq, pkt)
}

// Tombstone journals one capacity eviction.
func (j *Journal) Tombstone(exp wire.ExperimentID, seq uint64) {
	j.tombstones.Add(1)
	j.in <- frameRecord(RecTombstone, exp, seq, nil)
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
	j.in <- frameRecord(RecTrim, exp, cum, nil)
}

// Flush blocks until every record enqueued before the call has been
// written to the active segment file (not necessarily fsynced). The
// crash-consistency barrier: an in-process Crash flushes before Replay,
// modelling that the OS had the writes even though the process died.
// Allocation-free, so alloc-gated tests can barrier the writer inside a
// measured loop.
func (j *Journal) Flush() {
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	select {
	case j.flushReq <- struct{}{}:
		select {
		case <-j.flushAck:
		case <-j.done:
		}
	case <-j.done:
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
// segment. The journal is unusable afterwards.
func (j *Journal) Close() error {
	j.closeOnce.Do(func() {
		close(j.done)
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

// run is the writer goroutine: drain staged records, coalesce them into
// one file write, group-commit, roll and recycle segments. Steady-state
// allocation-free (reused batch and write buffers, pooled records
// released after writing) so the ingest-path alloc gates hold with
// journaling enabled.
func (j *Journal) run() {
	defer j.wg.Done()
	for {
		select {
		case rec := <-j.in:
			j.drainAndWrite(rec)
		case <-j.flushReq:
			j.drainPending()
			j.flushAck <- struct{}{}
		case <-j.done:
			j.drainPending()
			j.sync()
			return
		}
	}
}

// drainPending writes every record currently staged in the channel.
func (j *Journal) drainPending() {
	for {
		select {
		case rec := <-j.in:
			j.drainAndWrite(rec)
		default:
			return
		}
	}
}

// drainAndWrite batches rec with whatever else is already staged (up to
// batchMax), writes the batch with one coalesced file write, applies the
// sync policy, and handles segment roll + recycling.
func (j *Journal) drainAndWrite(rec []byte) {
	j.batch = j.batch[:0]
	j.batch = append(j.batch, rec)
	for len(j.batch) < batchMax {
		select {
		case r := <-j.in:
			j.batch = append(j.batch, r)
		default:
			goto drained
		}
	}
drained:
	j.wbuf = j.wbuf[:0]
	for _, r := range j.batch {
		j.bookkeep(r)
		switch {
		case j.opts.Sync == SyncAlways:
			j.write(r)
			j.sync()
		case len(j.wbuf)+len(r) > cap(j.wbuf):
			j.flushWbuf()
			if len(r) > cap(j.wbuf) {
				j.write(r)
			} else {
				j.wbuf = append(j.wbuf, r...)
			}
		default:
			j.wbuf = append(j.wbuf, r...)
		}
	}
	j.flushWbuf()
	if j.opts.Sync == SyncBatch {
		j.sync()
	}
	for i, r := range j.batch {
		wire.ReleaseBuffer(r)
		j.batch[i] = nil
	}
	if j.segBytes >= j.opts.SegmentBytes {
		j.roll()
	}
	j.recycleSealed()
}

// flushWbuf writes the coalescing buffer's contents, if any.
func (j *Journal) flushWbuf() {
	if len(j.wbuf) > 0 {
		j.write(j.wbuf)
		j.wbuf = j.wbuf[:0]
	}
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
	if err := j.f.Sync(); err != nil {
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
		if seq > j.segExpMax[exp] {
			j.segExpMax[exp] = seq
		}
		if seq > j.seqFloor[exp] {
			j.seqFloor[exp] = seq
		}
	case RecTrim:
		if seq > j.trimFloor[exp] {
			j.trimFloor[exp] = seq
		}
	}
}

// roll seals the active segment (fsync unless SyncNone, then close) and
// opens the next one.
func (j *Journal) roll() {
	if j.opts.Sync != SyncNone {
		j.sync()
	}
	if err := j.f.Close(); err != nil {
		j.writeErrs.Add(1)
	}
	j.sealed = append(j.sealed, sealedSeg{index: j.segIndex, expMax: j.segExpMax})
	if err := j.openSegment(j.segIndex + 1); err != nil {
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
}

// recycleSealed deletes sealed segments whose every appended entry the
// cumulative-ACK trim floor has passed, first re-journalling the counter
// floors of the experiments they held so a later replay cannot regress
// sequence numbering.
func (j *Journal) recycleSealed() {
	for len(j.sealed) > 0 {
		seg := j.sealed[0]
		for exp, max := range seg.expMax {
			if j.trimFloor[exp] < max {
				return
			}
		}
		for exp := range seg.expMax {
			var tf [8]byte
			binary.BigEndian.PutUint64(tf[:], j.trimFloor[exp])
			fr := frameRecord(RecFloors, exp, j.seqFloor[exp], tf[:])
			j.write(fr)
			wire.ReleaseBuffer(fr)
		}
		if j.opts.Sync != SyncNone {
			j.sync()
		}
		if err := os.Remove(filepath.Join(j.opts.Dir, segFileName(j.opts.Shard, seg.index))); err == nil {
			j.recycled.Add(1)
		}
		j.sealed = j.sealed[1:]
	}
}
