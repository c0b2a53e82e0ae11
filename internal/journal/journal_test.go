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

// TestJournalTornTailEveryOffset truncates the journal at every byte
// offset inside the final record and asserts recovery truncates the torn
// tail cleanly and replays exactly the intact records.
func TestJournalTornTailEveryOffset(t *testing.T) {
	base := t.TempDir()
	j, _ := openT(t, Options{Dir: base})
	for seq := uint64(1); seq <= 4; seq++ {
		j.Append(testExp, seq, payload(seq, 48))
	}
	j.Close()
	segPath := filepath.Join(base, segFileName(0, 0))
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	recLen := RecOverhead + 48
	lastStart := len(whole) - recLen

	for cut := lastStart + 1; cut < len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segFileName(0, 0)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec := openT(t, Options{Dir: dir})
		if !rec.TruncatedTail {
			t.Fatalf("cut at %d: torn tail not detected", cut)
		}
		checkBalance(t, rec)
		if got, want := rec.Replayed, uint64(3); got != want {
			t.Fatalf("cut at %d: replayed %d, want %d", cut, got, want)
		}
		if got := rec.Seqs[testExp]; got != 3 {
			t.Fatalf("cut at %d: sequence floor %d, want 3", cut, got)
		}
		if fi, err := os.Stat(filepath.Join(dir, segFileName(0, 0))); err != nil || fi.Size() != int64(lastStart) {
			t.Fatalf("cut at %d: torn segment not truncated to %d (size %d, err %v)", cut, lastStart, fi.Size(), err)
		}
		// The journal must be writable after a torn-tail recovery.
		j2.Append(testExp, 4, payload(4, 48))
		j2.Close()
		j3, rec3 := openT(t, Options{Dir: dir})
		if rec3.Replayed != 4 {
			t.Fatalf("cut at %d: post-recovery append lost (replayed %d)", cut, rec3.Replayed)
		}
		j3.Close()
	}

	// A cut at the exact record boundary is not torn — just a shorter log.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segFileName(0, 0)), whole[:lastStart], 0o644); err != nil {
		t.Fatal(err)
	}
	j4, rec4 := openT(t, Options{Dir: dir})
	defer j4.Close()
	if rec4.TruncatedTail {
		t.Fatal("boundary cut misreported as torn")
	}
	if rec4.Replayed != 3 {
		t.Fatalf("boundary cut replayed %d, want 3", rec4.Replayed)
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
	for _, sync := range []string{SyncBatch, SyncNone, SyncAlways} {
		dir := t.TempDir()
		// Segments a few records long, and a Flush per append so no batch
		// spans more than one roll.
		j, _ := openT(t, Options{Dir: dir, Sync: sync, SegmentBytes: 256})
		for seq := uint64(1); seq <= 12; seq++ {
			j.Append(testExp, seq, payload(seq, 64))
			j.Flush()
		}
		segs, err := j.listSegments()
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) < 4 {
			t.Fatalf("sync=%s: %d segments, want at least 3 rolls", sync, len(segs))
		}
		st := j.Stats()
		if sync == SyncNone && st.Fsyncs != 0 {
			t.Fatalf("sync=none journal counted %d fsyncs across %d rolls", st.Fsyncs, len(segs)-1)
		}
		if sync != SyncNone && st.Fsyncs == 0 {
			t.Fatalf("sync=%s journal never fsynced", sync)
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
	if _, _, err := Open(Options{Dir: t.TempDir(), Sync: "sometimes"}); err == nil {
		t.Fatal("Open accepted an unknown sync policy")
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
	// The barrier above leaves the writer parked in its select, and this
	// goroutine's next channel send orders the Close before its next write.
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
