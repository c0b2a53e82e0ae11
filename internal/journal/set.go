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
	// metrics scrape may be reading them through the gauges
	// RegisterMetrics installs.
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

// RegisterMetrics publishes the dmtp.journal.* family on reg: scrape-time
// func gauges over the summed shard counters, plus the shared fsync
// latency histogram, which every shard's writer observes into once
// installed. Both substrates register through this method, so the names
// match by construction.
func (s *Set) RegisterMetrics(reg *metrics.Registry) {
	snap := s.Stats
	reg.RegisterFunc(metrics.MetricJournalAppends, func() int64 { return int64(snap().Appends) })
	reg.RegisterFunc(metrics.MetricJournalAppendBytes, func() int64 { return int64(snap().AppendBytes) })
	reg.RegisterFunc(metrics.MetricJournalTombstones, func() int64 { return int64(snap().Tombstones) })
	reg.RegisterFunc(metrics.MetricJournalFsyncs, func() int64 { return int64(snap().Fsyncs) })
	reg.RegisterFunc(metrics.MetricJournalSegmentsRecycled, func() int64 { return int64(snap().SegmentsRecycled) })
	reg.RegisterFunc(metrics.MetricJournalReplayed, func() int64 { return int64(snap().Replayed) })
	reg.RegisterFunc(metrics.MetricJournalTruncatedTails, func() int64 { return int64(snap().TruncatedTails) })
	reg.RegisterFunc(metrics.MetricJournalWriteErrors, func() int64 { return int64(snap().WriteErrors) })
	reg.RegisterFunc(metrics.MetricJournalAppendBlockedNs, func() int64 { return int64(snap().AppendBlockedNs) })
	reg.RegisterFunc(metrics.MetricJournalPending, func() int64 { return int64(s.Pending()) })
	// The latest recovery's balance, summed across shards: the fleet
	// monitor's journal-balance watchdog checks appended − tombstoned ==
	// replayed on every scrape window.
	recSum := func(f func(*Recovered) uint64) int64 {
		var total int64
		for _, rec := range s.Recoveries() {
			total += int64(f(rec))
		}
		return total
	}
	reg.RegisterFunc(metrics.MetricJournalRecoveryAppended, func() int64 {
		return recSum(func(r *Recovered) uint64 { return r.Appended })
	})
	reg.RegisterFunc(metrics.MetricJournalRecoveryTombstoned, func() int64 {
		return recSum(func(r *Recovered) uint64 { return r.Tombstoned })
	})
	reg.RegisterFunc(metrics.MetricJournalRecoveryReplayed, func() int64 {
		return recSum(func(r *Recovered) uint64 { return r.Replayed })
	})
	h := reg.Histogram(metrics.MetricJournalFsyncNs)
	for _, j := range s.js {
		j.fsyncHist.Store(h)
	}
}
