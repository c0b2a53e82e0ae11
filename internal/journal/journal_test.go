package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

const testExp = wire.ExperimentID(0x01020304)

// payload builds a deterministic test payload.
func payload(seq uint64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seq) + byte(i)
	}
	return p
}

// openT opens a journal in dir, failing the test on error.
func openT(t *testing.T, opts Options) (*Journal, *Recovered) {
	t.Helper()
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rec
}

func checkBalance(t *testing.T, rec *Recovered) {
	t.Helper()
	if rec.Appended-rec.Tombstoned != rec.Replayed {
		t.Fatalf("replay balance broken: appended %d − tombstoned %d ≠ replayed %d",
			rec.Appended, rec.Tombstoned, rec.Replayed)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := openT(t, Options{Dir: dir})
	if rec.Replayed != 0 || len(rec.Entries) != 0 {
		t.Fatalf("fresh journal recovered %d entries", rec.Replayed)
	}
	for seq := uint64(1); seq <= 8; seq++ {
		j.Append(testExp, seq, payload(seq, 128))
	}
	j.Tombstone(testExp, 5) // capacity eviction
	j.TrimTo(testExp, 2)    // cumulative ACK covers 1, 2
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec2 := openT(t, Options{Dir: dir})
	defer j2.Close()
	checkBalance(t, rec2)
	if got, want := rec2.Replayed, uint64(5); got != want {
		t.Fatalf("replayed %d entries, want %d", got, want)
	}
	wantSeqs := []uint64{3, 4, 6, 7, 8}
	for i, e := range rec2.Entries {
		if e.Exp != testExp || e.Seq != wantSeqs[i] {
			t.Fatalf("entry %d = (exp %d, seq %d), want seq %d", i, e.Exp, e.Seq, wantSeqs[i])
		}
		if !bytes.Equal(e.Payload, payload(e.Seq, 128)) {
			t.Fatalf("entry seq %d payload mismatch", e.Seq)
		}
	}
	if got := rec2.Seqs[testExp]; got != 8 {
		t.Fatalf("sequence floor %d, want 8", got)
	}
	if got := rec2.Trims[testExp]; got != 2 {
		t.Fatalf("trim floor %d, want 2", got)
	}
	if rec2.TruncatedTail {
		t.Fatal("clean journal reported a torn tail")
	}
}

func TestJournalReappendAfterTombstoneKeepsOrder(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir})
	for seq := uint64(1); seq <= 3; seq++ {
		j.Append(testExp, seq, payload(seq, 32))
	}
	j.Tombstone(testExp, 2)
	j.Append(testExp, 2, payload(2, 64)) // re-stash: must land after 3
	j.Close()

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	checkBalance(t, rec)
	var seqs []uint64
	for _, e := range rec.Entries {
		seqs = append(seqs, e.Seq)
	}
	want := []uint64{1, 3, 2}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("replay order %v, want %v", seqs, want)
		}
	}
	if len(rec.Entries[2].Payload) != 64 {
		t.Fatalf("re-appended entry replayed the stale payload (%d bytes)", len(rec.Entries[2].Payload))
	}
}

// TestJournalTornTailEveryOffset cuts one multi-record write at every
// byte offset — a take is a single write(2) of many records, so a process
// death can leave any prefix of it — and asserts recovery keeps the
// longest whole-record prefix, truncates the rest away and counts it.
func TestJournalTornTailEveryOffset(t *testing.T) {
	const (
		inTake = 3
		recLen = RecOverhead + 24
	)
	d := holdFsync(t)
	base := t.TempDir()
	j, _ := openT(t, Options{Dir: base})
	defer d.free()
	// The first record parks the writer in its fsync; the next three are
	// staged behind it and leave as one take, one write.
	j.Append(testExp, 1, payload(1, 24))
	<-d.entered
	for seq := uint64(2); seq <= 1+inTake; seq++ {
		j.Append(testExp, seq, payload(seq, 24))
	}
	d.free()
	j.Flush()
	if got := j.Stats().Fsyncs; got != 2 {
		t.Fatalf("%d fsyncs for the one-record take and the %d-record take, want 2", got, inTake)
	}
	j.Close()
	segPath := filepath.Join(base, segFileName(0, 0))
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	takeStart := len(whole) - inTake*recLen
	if takeStart != SegHeaderLen+recLen {
		t.Fatalf("segment is %d bytes, want header + %d records of %d", len(whole), 1+inTake, recLen)
	}

	for cut := takeStart; cut < len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segFileName(0, 0)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		intact := uint64(1 + (cut-takeStart)/recLen)
		boundary := takeStart + (cut-takeStart)/recLen*recLen
		// A cut at an exact record boundary is not torn — just a shorter log.
		torn, wantTails := cut != boundary, uint64(0)
		if torn {
			wantTails = 1
		}
		j2, rec := openT(t, Options{Dir: dir, Sync: SyncNone})
		if rec.TruncatedTail != torn || j2.Stats().TruncatedTails != wantTails {
			t.Fatalf("cut at %d: torn tail reported %v and counted %d, want %v and %d",
				cut, rec.TruncatedTail, j2.Stats().TruncatedTails, torn, wantTails)
		}
		checkBalance(t, rec)
		if rec.Replayed != intact {
			t.Fatalf("cut at %d: replayed %d, want the %d whole records", cut, rec.Replayed, intact)
		}
		if got := rec.Seqs[testExp]; got != intact {
			t.Fatalf("cut at %d: sequence floor %d, want %d", cut, got, intact)
		}
		if fi, err := os.Stat(filepath.Join(dir, segFileName(0, 0))); err != nil || fi.Size() != int64(boundary) {
			t.Fatalf("cut at %d: torn segment not truncated to %d (size %d, err %v)", cut, boundary, fi.Size(), err)
		}
		// The journal must be writable after a torn-tail recovery.
		j2.Append(testExp, intact+1, payload(intact+1, 24))
		j2.Close()
		j3, rec3 := openT(t, Options{Dir: dir, Sync: SyncNone})
		if rec3.Replayed != intact+1 {
			t.Fatalf("cut at %d: post-recovery append lost (replayed %d)", cut, rec3.Replayed)
		}
		j3.Close()
	}
}

// TestJournalSegmentRecycling drives sustained append + trim through a
// tiny segment size and asserts fully-trimmed segments are deleted while
// the sequence floor survives recycling.
func TestJournalSegmentRecycling(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 2048})
	const n = 200
	for seq := uint64(1); seq <= n; seq++ {
		j.Append(testExp, seq, payload(seq, 96))
		if seq%10 == 0 {
			j.TrimTo(testExp, seq-5)
			j.Flush()
		}
	}
	j.TrimTo(testExp, n)
	j.Flush()
	// One more batch cycle so the final trim's recycle pass runs.
	j.Append(testExp, n+1, payload(n+1, 96))
	j.Flush()
	st := j.Stats()
	if st.SegmentsRecycled == 0 {
		t.Fatalf("no segments recycled after sustained trim (stats %+v)", st)
	}
	segs, err := j.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 3 {
		t.Fatalf("%d segment files survive full trim, want the recycler to keep up", len(segs))
	}
	j.Close()

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	checkBalance(t, rec)
	if got := rec.Seqs[testExp]; got != n+1 {
		t.Fatalf("sequence floor %d after recycling, want %d — recycling lost the counters", got, n+1)
	}
	if rec.Replayed != 1 || rec.Entries[0].Seq != n+1 {
		t.Fatalf("replayed %d entries, want exactly the untrimmed seq %d", rec.Replayed, n+1)
	}
}

// TestJournalRecyclesWithoutACKs is the daemons' default: a receiver that
// never ACKs, so the stash is bounded by capacity eviction alone and the
// journal sees tombstones in eviction order and no trim, ever. The stash
// releases each experiment from the front, so those tombstones release
// segments just as trims do and the disk tracks the live window, not
// history.
func TestJournalRecyclesWithoutACKs(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 2048})
	exps := []wire.ExperimentID{testExp, testExp + 1}
	const n, held = 2500, 50 // appends and live entries per experiment
	for seq := uint64(1); seq <= n; seq++ {
		for _, exp := range exps {
			if seq > held {
				j.Tombstone(exp, seq-held) // the insert below evicts the oldest
			}
			j.Append(exp, seq, payload(seq, 96))
		}
		if seq%10 == 0 {
			j.Flush()
		}
	}
	j.Flush()
	st := j.Stats()
	if st.SegmentsRecycled == 0 {
		t.Fatalf("no segment recycled after %d evictions (stats %+v)", st.Tombstones, st)
	}
	// A segment is released once both experiments have moved on by held
	// inserts: 100 tombstone + append pairs of 138 bytes, seven segments,
	// plus the takes in between and the active one. History is 337.
	if segs := listTestSegments(t, dir); len(segs) > 12 {
		t.Fatalf("%d segment files for a live window of %d entries: the disk tracks history, not the stash",
			len(segs), len(exps)*held)
	}
	j.Close()

	j2, rec := openT(t, Options{Dir: dir, SegmentBytes: 2048})
	checkBalance(t, rec)
	if rec.Replayed != uint64(len(exps)*held) {
		t.Fatalf("replayed %d entries, want the %d live ones", rec.Replayed, len(exps)*held)
	}
	for _, e := range rec.Entries {
		if e.Seq <= n-held || e.Seq > n {
			t.Fatalf("replayed (exp %d, seq %d), outside the live window (%d, %d]", e.Exp, e.Seq, n-held, n)
		}
	}
	for _, exp := range exps {
		if got := rec.Seqs[exp]; got != n {
			t.Fatalf("exp %d: sequence floor %d after recycling, want %d", exp, got, n)
		}
	}
	// The floors a previous process earned from tombstones survive a
	// reopen: evicting the rest lets the reopened journal recycle what it
	// inherited.
	for _, exp := range exps {
		j2.Tombstone(exp, n)
	}
	j2.Append(testExp, n+1, payload(n+1, 96))
	j2.Flush()
	if segs := listTestSegments(t, dir); len(segs) > 2 {
		t.Fatalf("%d segment files after everything inherited was evicted, want the active one (and at most one sealed)", len(segs))
	}
	j2.Close()
}

// TestJournalReplayAfterProcessCrash exercises the in-process crash
// path: Flush + Replay on a live journal, no reopen.
func TestJournalReplayAfterProcessCrash(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir})
	defer j.Close()
	for seq := uint64(1); seq <= 6; seq++ {
		j.Append(testExp, seq, payload(seq, 64))
	}
	j.TrimTo(testExp, 1)
	rec, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	checkBalance(t, rec)
	if rec.Replayed != 5 {
		t.Fatalf("replayed %d, want 5", rec.Replayed)
	}
	if got := j.Stats().Replayed; got != 5 {
		t.Fatalf("stats.Replayed = %d, want 5", got)
	}
}

// TestReplayDropBiasBreaksBalance proves the deliberately-broken replay
// hook violates the appended − tombstoned == replayed invariant — the
// property the campaign's journal oracle self-test relies on.
func TestReplayDropBiasBreaksBalance(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir})
	defer j.Close()
	for seq := uint64(1); seq <= 10; seq++ {
		j.Append(testExp, seq, payload(seq, 32))
	}
	ReplayDropBias = 3
	defer func() { ReplayDropBias = 0 }()
	rec, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rec.Appended-rec.Tombstoned == rec.Replayed {
		t.Fatal("broken replay still balances — the oracle self-test would be vacuous")
	}
}

func TestJournalRejectsMidSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 512})
	for seq := uint64(1); seq <= 40; seq++ {
		j.Append(testExp, seq, payload(seq, 64))
	}
	j.Close()
	segs := listTestSegments(t, dir)
	if len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %d", len(segs))
	}
	// Flip a payload byte mid-way through the first segment.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[SegHeaderLen+RecHeaderLen+3] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted mid-journal corruption")
	}
}

func TestJournalSyncPolicies(t *testing.T) {
	for _, sync := range []string{SyncBatch, SyncNone} {
		dir := t.TempDir()
		// A Flush per append makes every take one record, and a segment
		// reaches its 256 bytes with its third (16 + 3 × 85): twelve takes,
		// four rolls, nothing to recycle.
		j, _ := openT(t, Options{Dir: dir, Sync: sync, SegmentBytes: 256})
		for seq := uint64(1); seq <= 12; seq++ {
			j.Append(testExp, seq, payload(seq, 64))
			j.Flush()
		}
		if segs := listTestSegments(t, dir); len(segs) != 5 {
			t.Fatalf("sync=%s: %d segments, want 4 sealed and the active one", sync, len(segs))
		}
		st := j.Stats()
		if want := map[string]uint64{SyncBatch: 12 + 4, SyncNone: 0}[sync]; st.Fsyncs != want {
			t.Fatalf("sync=%s: %d fsyncs over 12 takes and 4 rolls, want %d", sync, st.Fsyncs, want)
		}
		if st.WriteErrors != 0 {
			t.Fatalf("sync=%s: %d write errors on a healthy directory", sync, st.WriteErrors)
		}
		j.Close()
		j2, rec := openT(t, Options{Dir: dir, Sync: sync})
		j2.Close()
		if rec.Replayed != 12 {
			t.Fatalf("sync=%s: replayed %d, want 12", sync, rec.Replayed)
		}
	}
	// "always" went with the writer that could honour it record by record.
	for _, sync := range []string{"sometimes", "always"} {
		if _, _, err := Open(Options{Dir: t.TempDir(), Sync: sync}); err == nil {
			t.Fatalf("Open accepted sync policy %q", sync)
		}
	}
}

// TestJournalTakeSpansSegments stages eleven records behind a held writer
// so that they leave as one take across four segments: every segment must
// end at the first record boundary at or past SegmentBytes and parse on
// its own, under one fsync per roll and one for the take.
func TestJournalTakeSpansSegments(t *testing.T) {
	d := holdFsync(t)
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 256})
	defer j.Close()
	defer d.free()
	j.Append(testExp, 1, payload(1, 64))
	<-d.entered // the writer is inside the first take's fsync
	for seq := uint64(2); seq <= 12; seq++ {
		j.Append(testExp, seq, payload(seq, 64))
	}
	d.free()
	rec, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay across the segments of one take: %v", err)
	}
	if rec.Replayed != 12 {
		t.Fatalf("replayed %d, want 12", rec.Replayed)
	}
	// 16 + 3 × 85 = 271 ≥ 256: three records a segment, whoever wrote them.
	segs := listTestSegments(t, dir)
	if len(segs) != 5 {
		t.Fatalf("%d segments, want 4 sealed and the active one", len(segs))
	}
	for i, path := range segs {
		want := int64(SegHeaderLen + 3*(RecOverhead+64))
		if i == 4 {
			want = SegHeaderLen
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != want {
			t.Fatalf("segment %d is %d bytes (err %v), want %d", i, fi.Size(), err, want)
		}
	}
	if got := j.Stats().Fsyncs; got != 1+4+1 {
		t.Fatalf("%d fsyncs, want one per take and one per roll: 6", got)
	}
}

// TestJournalCountsWriteErrors pulls the active segment file out from
// under the writer: the failed write and the failed group-commit fsync
// must each show up in WriteErrors instead of vanishing.
func TestJournalCountsWriteErrors(t *testing.T) {
	j, _ := openT(t, Options{Dir: t.TempDir()})
	defer j.Close()
	j.Append(testExp, 1, payload(1, 64))
	j.Flush()
	if st := j.Stats(); st.WriteErrors != 0 {
		t.Fatalf("%d write errors before the fault", st.WriteErrors)
	}
	// The barrier above leaves the writer parked on an empty stage, and it
	// next touches the file only after taking the journal's mutex behind
	// this goroutine's next Append, which orders the Close before its write.
	j.f.Close()
	j.Append(testExp, 2, payload(2, 64))
	j.Flush()
	if st := j.Stats(); st.WriteErrors < 2 {
		t.Fatalf("write errors = %d after a write and an fsync on a closed file, want 2", st.WriteErrors)
	}
}

func TestOpenSetShardsAreIndependent(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSet(dir, 3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Shard(0).Append(testExp, 1, payload(1, 32))
	s.Shard(2).Append(testExp+1, 7, payload(7, 32))
	s.Flush()
	recs, err := s.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Replayed != 1 || recs[1].Replayed != 0 || recs[2].Replayed != 1 {
		t.Fatalf("per-shard replays = %d/%d/%d, want 1/0/1",
			recs[0].Replayed, recs[1].Replayed, recs[2].Replayed)
	}
	if st := s.Stats(); st.Appends != 2 {
		t.Fatalf("set appends = %d, want 2", st.Appends)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// listTestSegments returns the shard-0 segment paths in index order.
func listTestSegments(t *testing.T, dir string) []string {
	t.Helper()
	j := &Journal{opts: Options{Dir: dir, Shard: 0}}
	segs, err := j.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, s := range segs {
		out = append(out, s.path)
	}
	return out
}
