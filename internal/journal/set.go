package journal

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// Set groups the per-shard journals of one sharded relay stash: shard
// i's BufferEngine journals into Set.Shard(i). All shards share one
// directory; filenames carry the shard number.
type Set struct {
	js []*Journal
	// recMu guards recs: Replay swaps recoveries while a concurrent
	// metrics scrape may be reading them through the set RegisterMetrics
	// installs.
	recMu sync.Mutex
	recs  []*Recovered
}

// OpenSet opens (and recovers) one journal per shard in dir. On error,
// any journals already opened are closed. The recoveries from the
// initial scan are kept for Recovered.
func OpenSet(dir string, shards int, sync string, segmentBytes int) (*Set, error) {
	if shards < 1 {
		shards = 1
	}
	s := &Set{js: make([]*Journal, shards), recs: make([]*Recovered, shards)}
	for i := 0; i < shards; i++ {
		j, rec, err := Open(Options{Dir: dir, Shard: i, Sync: sync, SegmentBytes: segmentBytes})
		if err != nil {
			for k := 0; k < i; k++ {
				s.js[k].Close()
			}
			return nil, fmt.Errorf("journal: shard %d: %w", i, err)
		}
		s.js[i] = j
		s.recs[i] = rec
	}
	return s, nil
}

// Shard returns shard i's journal.
func (s *Set) Shard(i int) *Journal { return s.js[i] }

// Recovered returns shard i's recovery from the OpenSet scan.
func (s *Set) Recovered(i int) *Recovered {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return s.recs[i]
}

// Flush barriers every shard: all records staged before the call are in
// the segment files when it returns.
func (s *Set) Flush() {
	for _, j := range s.js {
		j.Flush()
	}
}

// Replay flushes and re-scans every shard, returning one recovery per
// shard (the crash-restart path). The recoveries also replace the ones
// Recovered serves, so oracles always see the latest replay.
func (s *Set) Replay() ([]*Recovered, error) {
	out := make([]*Recovered, len(s.js))
	for i, j := range s.js {
		rec, err := j.Replay()
		if err != nil {
			return nil, fmt.Errorf("journal: shard %d: %w", i, err)
		}
		out[i] = rec
		s.recMu.Lock()
		s.recs[i] = rec
		s.recMu.Unlock()
	}
	return out, nil
}

// Recoveries returns the most recent recovery of every shard (OpenSet's
// scan, or the last Replay) — what the campaign's journal-balance
// oracle inspects.
func (s *Set) Recoveries() []*Recovered {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	out := make([]*Recovered, len(s.recs))
	copy(out, s.recs)
	return out
}

// Pending sums the per-shard journals' flush lag (records staged but not
// yet in the segment files).
func (s *Set) Pending() int {
	total := 0
	for _, j := range s.js {
		total += j.Pending()
	}
	return total
}

// Stats sums the per-shard journal counters.
func (s *Set) Stats() Stats {
	var agg Stats
	for _, j := range s.js {
		st := j.Stats()
		agg.Appends += st.Appends
		agg.AppendBytes += st.AppendBytes
		agg.Tombstones += st.Tombstones
		agg.Fsyncs += st.Fsyncs
		agg.SegmentsRecycled += st.SegmentsRecycled
		agg.Replayed += st.Replayed
		agg.TruncatedTails += st.TruncatedTails
		agg.WriteErrors += st.WriteErrors
		agg.AppendBlockedNs += st.AppendBlockedNs
	}
	return agg
}

// Close closes every shard's journal, returning the first error.
func (s *Set) Close() error {
	var first error
	for _, j := range s.js {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RegisterMetrics publishes the dmtp.journal.* family on reg: one sampled
// set over the summed shard counters and the latest recovery, plus the
// shared fsync latency histogram, which every shard's writer observes into
// once installed. The recovery sums come from one Recoveries call, so
// appended − tombstoned == replayed — the fleet monitor's journal-balance
// watchdog — compares the numbers of one recovery. Both substrates
// register through this method, so the names match by construction.
func (s *Set) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterSet([]string{
		metrics.MetricJournalAppends,
		metrics.MetricJournalAppendBytes,
		metrics.MetricJournalTombstones,
		metrics.MetricJournalFsyncs,
		metrics.MetricJournalSegmentsRecycled,
		metrics.MetricJournalReplayed,
		metrics.MetricJournalTruncatedTails,
		metrics.MetricJournalWriteErrors,
		metrics.MetricJournalAppendBlockedNs,
		metrics.MetricJournalPending,
		metrics.MetricJournalRecoveryAppended,
		metrics.MetricJournalRecoveryTombstoned,
		metrics.MetricJournalRecoveryReplayed,
	}, func(dst []int64) {
		st := s.Stats()
		var rec Recovered
		for _, r := range s.Recoveries() {
			rec.Appended += r.Appended
			rec.Tombstoned += r.Tombstoned
			rec.Replayed += r.Replayed
		}
		for i, v := range [...]uint64{st.Appends, st.AppendBytes, st.Tombstones, st.Fsyncs,
			st.SegmentsRecycled, st.Replayed, st.TruncatedTails, st.WriteErrors, st.AppendBlockedNs,
			uint64(s.Pending()), rec.Appended, rec.Tombstoned, rec.Replayed} {
			dst[i] = int64(v)
		}
	})
	h := reg.Histogram(metrics.MetricJournalFsyncNs)
	for _, j := range s.js {
		j.fsyncHist.Store(h)
	}
}
