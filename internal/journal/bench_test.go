package journal

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/wire"
)

// benchAppend drives the hot-path append at a fixed payload size under
// one sync policy. Periodic trims let segment recycling bound disk use,
// so long -benchtime runs don't fill the filesystem; the closing Flush
// puts the writer's backlog inside the measured window, making ns/op an
// honest end-to-end figure rather than a staging figure. blocked-ns/op is
// the part of it the hot path spent waiting for the writer. Returns the
// journal's counters at the end of the measured window.
func benchAppend(b *testing.B, sync string, payloadLen int) Stats {
	j, _, err := Open(Options{Dir: b.TempDir(), Shard: 0, Sync: sync})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	exp := wire.ExperimentID(1)
	b.ReportAllocs()
	b.SetBytes(int64(payloadLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		j.Append(exp, seq, payload)
		if seq%4096 == 0 {
			j.TrimTo(exp, seq)
		}
	}
	j.Flush()
	st := j.Stats()
	b.ReportMetric(float64(st.AppendBlockedNs)/float64(b.N), "blocked-ns/op")
	return st
}

// BenchmarkJournalAppend is the headline figure: the default batch-fsync
// policy at a DAQ-sized payload. CI runs a short smoke of it on tmpfs.
func BenchmarkJournalAppend(b *testing.B) { benchAppend(b, SyncBatch, 512) }

// BenchmarkJournalAppendSyncNone isolates framing + file-write cost from
// fsync cost (the write barrier still runs; durability is left to the OS).
func BenchmarkJournalAppendSyncNone(b *testing.B) { benchAppend(b, SyncNone, 512) }

// BenchmarkJournalAppendSizes sweeps payload size under the default
// policy, showing where framing overhead stops mattering.
func BenchmarkJournalAppendSizes(b *testing.B) {
	for _, n := range []int{64, 512, 1400} {
		b.Run(fmt.Sprintf("payload=%d", n), func(b *testing.B) {
			benchAppend(b, SyncBatch, n)
		})
	}
}

// BenchmarkJournalAppendSlowDisk is the journal on a disk that is slow in
// a repeatable way: every fsync is a fixed 5 ms sleep instead of whatever
// the machine's disk and its other tenants make of it. The writer is then
// the bottleneck by construction: fsync-ns/op is the injected sleep per
// record (a stage holds about 3900 of these; takes, rolls and recycles
// each fsync), and ns/op should sit just above it, nearly all of it
// blocked time — a per-record hand-off cost on top is the regression this
// guards against.
func BenchmarkJournalAppendSlowDisk(b *testing.B) {
	const slow = 5 * time.Millisecond
	real := fsync
	fsync = func(*os.File) error { time.Sleep(slow); return nil }
	defer func() { fsync = real }()
	st := benchAppend(b, SyncBatch, 512)
	b.ReportMetric(float64(st.Fsyncs)*float64(slow)/float64(b.N), "fsync-ns/op")
}
