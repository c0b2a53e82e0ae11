// Package oracles holds the transport's invariant checks in a form both
// consumers share: the campaign runner's post-run battery (which has the
// engines in hand and checks their structs directly through the core
// predicates) and the fleet monitor's runtime watchdogs (which only have
// scraped metric samples and use the sample-based checks). Keeping the
// predicates in one place means "what counts as a violation" cannot
// drift between offline sweeps and online supervision.
package oracles

import (
	"fmt"

	"repro/internal/metrics"
)

// StashBalanced is the stash release-balance invariant: every stashed
// byte is either still buffered or was released exactly once, so
// cumulative stashed − released must equal current occupancy.
func StashBalanced(stashedBytes, releasedBytes, occupancyBytes uint64) bool {
	return stashedBytes-releasedBytes == occupancyBytes
}

// ReplayBalanced is the journal replay-balance invariant: append records
// scanned minus removals applied (tombstones, trim sweeps, same-key
// overwrites) must equal entries replayed. A replay that silently drops
// records (journal.ReplayDropBias simulates one) breaks it.
func ReplayBalanced(appended, tombstoned, replayed uint64) bool {
	return appended-tombstoned == replayed
}

// Finding is one invariant violation found in a metrics snapshot.
type Finding struct {
	// Check names the watchdog ("stash-balance", "journal-replay-balance",
	// "monotone-counter").
	Check string `json:"check"`
	// Detail is the human-readable violation, with the numbers inline.
	Detail string `json:"detail"`
}

// StashBalance checks the scraped stash-balance gauge: the target
// computes dmtp.buf.stash_imbalance_bytes under one lock hold, so any
// nonzero sample is a real accounting leak, not scrape skew. Targets
// without a buffer (sender, receiver) export no such gauge and pass.
func StashBalance(cur []metrics.Sample) []Finding {
	imb, ok := metrics.SampleValue(cur, metrics.MetricBufStashImbalance)
	if !ok || imb == 0 {
		return nil
	}
	return []Finding{{
		Check:  "stash-balance",
		Detail: fmt.Sprintf("%s = %d bytes (stashed − released ≠ occupancy)", metrics.MetricBufStashImbalance, imb),
	}}
}

// JournalReplayBalance checks the scraped recovery gauges of the most
// recent journal recovery: dmtp.journal.recovery.appended − .tombstoned
// must equal .replayed. Targets without a journal export none of the
// three and pass.
func JournalReplayBalance(cur []metrics.Sample) []Finding {
	appended, okA := metrics.SampleValue(cur, metrics.MetricJournalRecoveryAppended)
	tombstoned, okT := metrics.SampleValue(cur, metrics.MetricJournalRecoveryTombstoned)
	replayed, okR := metrics.SampleValue(cur, metrics.MetricJournalRecoveryReplayed)
	if !okA || !okT || !okR {
		return nil
	}
	if ReplayBalanced(uint64(appended), uint64(tombstoned), uint64(replayed)) {
		return nil
	}
	return []Finding{{
		Check: "journal-replay-balance",
		Detail: fmt.Sprintf("journal recovery imbalance: appended %d − tombstoned %d = %d, but replayed %d",
			appended, tombstoned, appended-tombstoned, replayed),
	}}
}

// CounterMonotone compares two consecutive snapshots of one target and
// reports every cumulative metric (metrics.Monotone) that went backwards
// — a torn export, a double-registered name, or counter state lost
// without a process restart. Callers must suppress the check across a
// detected restart (proc.uptime_seconds decreasing) by passing prev ==
// nil for that window.
func CounterMonotone(prev, cur []metrics.Sample) []Finding {
	if prev == nil {
		return nil
	}
	var out []Finding
	for _, s := range cur {
		if !metrics.Monotone(s.Name) {
			continue
		}
		before, ok := metrics.SampleValue(prev, s.Name)
		if !ok {
			continue
		}
		if s.Value < before {
			out = append(out, Finding{
				Check:  "monotone-counter",
				Detail: fmt.Sprintf("%s went backwards: %d → %d", s.Name, before, s.Value),
			})
		}
	}
	return out
}

// Check runs every sample-based watchdog over one target's scrape window
// (prev may be nil on the first scrape or across a restart).
func Check(prev, cur []metrics.Sample) []Finding {
	var out []Finding
	out = append(out, StashBalance(cur)...)
	out = append(out, JournalReplayBalance(cur)...)
	out = append(out, CounterMonotone(prev, cur)...)
	return out
}
