package journal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// heldDisk is a disk whose fsyncs the test lets through one at a time.
type heldDisk struct {
	// entered receives once per fsync, when the writer is inside it.
	entered chan struct{}
	// release lets the fsync the writer is inside complete.
	release chan struct{}
	// freed, once closed by free, turns the disk fast again for good.
	freed    chan struct{}
	freeOnce sync.Once
}

// free lets every fsync through from now on. Tests defer it ahead of the
// journal's Close, which waits for a writer that may be held.
func (d *heldDisk) free() { d.freeOnce.Do(func() { close(d.freed) }) }

// holdFsync swaps the package's fsync hook for a held disk until the test
// ends. Call it before opening the journal, so the hook outlives the
// writer.
func holdFsync(t *testing.T) *heldDisk {
	t.Helper()
	d := &heldDisk{entered: make(chan struct{}), release: make(chan struct{}), freed: make(chan struct{})}
	real := fsync
	fsync = func(f *os.File) error {
		select {
		case d.entered <- struct{}{}:
			select {
			case <-d.release:
			case <-d.freed:
			}
		case <-d.freed:
		}
		return real(f)
	}
	t.Cleanup(func() { fsync = real })
	return d
}

// staysBlocked fails the test if done closes within a grace period.
func staysBlocked(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned while the writer was held", what)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestJournalSlowDisk holds the writer inside its fsyncs and walks the
// bounded-stall contract: the stage absorbs stageBytes without blocking
// the hot path, the record after that blocks, one take by the writer
// frees a whole stage (not one record's worth), the wait is counted, and
// Flush waits for the file, not for the stage.
func TestJournalSlowDisk(t *testing.T) {
	d := holdFsync(t)
	dir := t.TempDir()
	// One segment throughout: rolls would fsync too.
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 1 << 30})
	defer j.Close()
	defer d.free()
	const recLen = 1024
	const perStage = stageBytes / recLen
	pl := payload(7, recLen-RecOverhead)
	seq := uint64(0)
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			j.Append(testExp, seq, pl)
		}
	}

	appendN(1)
	<-d.entered // the writer holds that record inside its fsync

	// (a) A stage-full of appends returns with the writer going nowhere.
	appendN(perStage)
	if got := j.Pending(); got != 1+perStage {
		t.Fatalf("pending %d with the writer held, want %d", got, 1+perStage)
	}
	if got := j.Stats().AppendBlockedNs; got != 0 {
		t.Fatalf("append_blocked_ns %d before anything blocked", got)
	}

	// (b) The next one blocks; one fsync completing lets the writer take
	// the stage, which unblocks it and leaves room for a stage-full more
	// while the writer sits in its next fsync.
	unblocked := make(chan struct{})
	go func() {
		appendN(1)
		close(unblocked)
	}()
	staysBlocked(t, unblocked, "Append onto a full stage")
	d.release <- struct{}{}
	<-unblocked
	<-d.entered
	appendN(perStage - 1)
	if got := j.Pending(); got != 2*perStage {
		t.Fatalf("pending %d with one take in fsync and a full stage, want %d", got, 2*perStage)
	}
	// (e) The 50 ms that append waited are on the counter.
	if got := time.Duration(j.Stats().AppendBlockedNs); got < 50*time.Millisecond {
		t.Fatalf("append_blocked_ns %v after an append blocked for 50 ms", got)
	}

	// (c) Flush is a barrier on the segment file.
	flushed := make(chan struct{})
	go func() {
		j.Flush()
		close(flushed)
	}()
	staysBlocked(t, flushed, "Flush with two takes unwritten")
	d.free()
	<-flushed
	if got := j.Pending(); got != 0 {
		t.Fatalf("pending %d after Flush", got)
	}
	want := int64(SegHeaderLen + (1+2*perStage)*recLen)
	if fi, err := os.Stat(filepath.Join(dir, segFileName(0, 0))); err != nil || fi.Size() != want {
		t.Fatalf("segment holds %d bytes after Flush (err %v), want all %d", fi.Size(), err, want)
	}
}

// TestJournalFlushAllocatesNothing pins the barrier's use inside
// alloc-gated loops.
func TestJournalFlushAllocatesNothing(t *testing.T) {
	j, _ := openT(t, Options{Dir: t.TempDir(), Sync: SyncNone})
	defer j.Close()
	pl := payload(1, 256)
	seq := uint64(0)
	if avg := testing.AllocsPerRun(200, func() {
		seq++
		j.Append(testExp, seq, pl)
		j.Flush()
	}); avg != 0 {
		t.Fatalf("Append + Flush allocates %.2f allocs/op, want 0", avg)
	}
}

// TestJournalCloseUnblocksAppend closes a journal whose hot path is
// blocked on a full stage behind a held writer: Close lets the append go,
// and a closed journal drops and counts what it is offered.
func TestJournalCloseUnblocksAppend(t *testing.T) {
	d := holdFsync(t)
	j, _ := openT(t, Options{Dir: t.TempDir(), SegmentBytes: 1 << 30})
	defer d.free()
	pl := payload(7, 1024-RecOverhead)
	j.Append(testExp, 1, pl)
	<-d.entered
	for seq := uint64(2); seq <= 1+stageBytes/1024; seq++ {
		j.Append(testExp, seq, pl)
	}
	unblocked := make(chan struct{})
	go func() {
		j.Append(testExp, 1<<20, pl)
		close(unblocked)
	}()
	staysBlocked(t, unblocked, "Append onto a full stage")
	closed := make(chan error, 1)
	go func() { closed <- j.Close() }()
	<-unblocked // with the writer still inside its fsync
	if got := j.Stats().WriteErrors; got != 1 {
		t.Fatalf("write errors = %d after Close dropped the blocked append, want 1", got)
	}
	d.free()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	j.Append(testExp, 1<<20+1, pl)
	j.Tombstone(testExp, 1)
	j.TrimTo(testExp, 2)
	j.Flush()
	if got := j.Stats().WriteErrors; got != 4 {
		t.Fatalf("write errors = %d after three records offered to a closed journal, want 4", got)
	}
	// What was staged before Close is in the file; what came after is not.
	_, rec := openT(t, Options{Dir: j.opts.Dir, Sync: SyncNone})
	if rec.Replayed != 1+stageBytes/1024 {
		t.Fatalf("replayed %d, want the %d records staged before Close", rec.Replayed, 1+stageBytes/1024)
	}
}
