package metrics

import "strings"

// Canonical metric names. Both substrates register through the helpers in
// internal/dmtp, which use exactly these constants, so a simulator run and
// a live daemon export identical names. Every name here must appear in
// OBSERVABILITY.md's catalogue — TestCatalogMatchesObservabilityDoc diffs
// the two — and any metric registered by the transport layers must be
// listed in Catalog below.
const (
	// Receiver (downstream endpoint) metrics.
	MetricRxReceived        = "dmtp.rx.received"
	MetricRxBytes           = "dmtp.rx.bytes"
	MetricRxDelivered       = "dmtp.rx.delivered"
	MetricRxDuplicates      = "dmtp.rx.duplicates"
	MetricRxGapsDetected    = "dmtp.rx.gaps_detected"
	MetricRxNAKsSent        = "dmtp.rx.naks_sent"
	MetricRxRecovered       = "dmtp.rx.recovered"
	MetricRxWriteOffs       = "dmtp.rx.write_offs"
	MetricRxAged            = "dmtp.rx.aged"
	MetricRxLate            = "dmtp.rx.late"
	MetricRxUnsequenced     = "dmtp.rx.unsequenced"
	MetricRxRejected        = "dmtp.rx.rejected"
	MetricRxMalformed       = "dmtp.rx.malformed"
	MetricRxOutstandingGaps = "dmtp.rx.outstanding_gaps"
	MetricRxLatencyP50      = "dmtp.rx.latency_p50_ns"
	MetricRxLatencyP99      = "dmtp.rx.latency_p99_ns"

	// Retransmission-buffer (relay / DTN buffer node) metrics.
	MetricBufStashed        = "dmtp.buf.stashed"
	MetricBufStashedBytes   = "dmtp.buf.stashed_bytes"
	MetricBufEvicted        = "dmtp.buf.evicted"
	MetricBufTrimmed        = "dmtp.buf.trimmed"
	MetricBufRefused        = "dmtp.buf.refused"
	MetricBufNAKsServed     = "dmtp.buf.naks_served"
	MetricBufRetransmits    = "dmtp.buf.retransmits"
	MetricBufNAKMisses      = "dmtp.buf.nak_misses"
	MetricBufCrashes        = "dmtp.buf.crashes"
	MetricBufOccupancyBytes = "dmtp.buf.occupancy_bytes"
	// MetricBufStashImbalance is the stash-balance invariant as a gauge:
	// cumulative stashed bytes − released bytes − current occupancy,
	// summed over shards under one hold of the relay lock so it is exactly
	// 0 in a healthy engine at any instant. The monitor's stash-balance
	// watchdog alerts on any nonzero sample.
	MetricBufStashImbalance = "dmtp.buf.stash_imbalance_bytes"
	// MetricBufShardOccupancyPrefix is a gauge family: one occupancy
	// gauge per buffer shard, e.g. "dmtp.buf.occupancy_bytes.shard0".
	MetricBufShardOccupancyPrefix = "dmtp.buf.occupancy_bytes.shard"

	// Stash write-ahead journal metrics (internal/journal, registered by
	// both substrates through journal.Set.RegisterMetrics when a relay
	// runs with a journal directory).
	MetricJournalAppends          = "dmtp.journal.appends"
	MetricJournalAppendBytes      = "dmtp.journal.append_bytes"
	MetricJournalTombstones       = "dmtp.journal.tombstones"
	MetricJournalFsyncs           = "dmtp.journal.fsyncs"
	MetricJournalFsyncNs          = "dmtp.journal.fsync_ns"
	MetricJournalSegmentsRecycled = "dmtp.journal.segments_recycled"
	MetricJournalReplayed         = "dmtp.journal.replayed"
	MetricJournalTruncatedTails   = "dmtp.journal.truncated_tails"
	MetricJournalWriteErrors      = "dmtp.journal.write_errors"
	// MetricJournalAppendBlockedNs is the cumulative time the relay's hot
	// path waited for room in a full journal stage.
	MetricJournalAppendBlockedNs = "dmtp.journal.append_blocked_ns"
	// MetricJournalPending is the journal flush lag: records staged for
	// the per-shard writers but not yet written to the segment files.
	MetricJournalPending = "dmtp.journal.pending"
	// The dmtp.journal.recovery.* gauges expose the most recent journal
	// recovery (startup scan or crash replay) summed across shards, so the
	// monitor's journal-balance watchdog can check appended − tombstoned
	// == replayed over HTTP.
	MetricJournalRecoveryAppended   = "dmtp.journal.recovery.appended"
	MetricJournalRecoveryTombstoned = "dmtp.journal.recovery.tombstoned"
	MetricJournalRecoveryReplayed   = "dmtp.journal.recovery.replayed"

	// Sender (instrument source) metrics.
	MetricTxSent           = "dmtp.tx.sent"
	MetricTxSentBytes      = "dmtp.tx.sent_bytes"
	MetricTxSendErrors     = "dmtp.tx.send_errors"
	MetricTxReconnects     = "dmtp.tx.reconnects"
	MetricTxQueued         = "dmtp.tx.queued"
	MetricTxBackPressure   = "dmtp.tx.backpressure_signals"
	MetricTxDeadlineMisses = "dmtp.tx.deadline_misses"

	// Network-element (relay / buffer-node adapter) metrics.
	MetricRelayUpgraded      = "dmtp.relay.upgraded"
	MetricRelayForwarded     = "dmtp.relay.forwarded"
	MetricRelayInjectedDrops = "dmtp.relay.injected_drops"
	MetricRelayRepointed     = "dmtp.relay.repointed"
	MetricRelayDroppedDown   = "dmtp.relay.dropped_down"
	// MetricRelayMalformed counts datagrams the relay could not read: a
	// failed View.Check, or a NAK or ACK that would not decode.
	MetricRelayMalformed = "dmtp.relay.malformed"
	// MetricRelayReshapePrefix is a gauge family: one gauge per
	// post-reshape config ID, e.g. "dmtp.relay.reshapes.config1".
	MetricRelayReshapePrefix = "dmtp.relay.reshapes.config"

	// Flow-table (many-flow relay demultiplexing) metrics.
	MetricRelayFlowsActive   = "dmtp.relay.flows.active"
	MetricRelayFlowsOpened   = "dmtp.relay.flows.opened"
	MetricRelayFlowsExpired  = "dmtp.relay.flows.expired"
	MetricRelayFlowsRejected = "dmtp.relay.flows.rejected"

	// In-band tracing metrics (internal/tracespan, registered through
	// tracespan.Collector.RegisterMetrics on both substrates).
	MetricTraceSampled    = "dmtp.trace.sampled"
	MetricTraceDropped    = "dmtp.trace.dropped"
	MetricTraceRecoveryNs = "dmtp.trace.recovery_ns"
	// MetricTraceSegmentOWDPrefix is a histogram family: one per-segment
	// one-way-delay histogram per hop-span position, e.g.
	// "dmtp.trace.segment_owd_ns.seg1" for the first transit segment.
	MetricTraceSegmentOWDPrefix = "dmtp.trace.segment_owd_ns.seg"

	// Live kernel-batch datapath metrics (internal/live batchConn;
	// live substrate only — there is no syscall layer in the simulator).
	MetricLiveBatchPktsPerSyscall = "dmtp.live.batch.pkts_per_syscall"
	MetricLiveBatchGSOSegments    = "dmtp.live.batch.gso_segments"
	MetricLiveBatchGROSplits      = "dmtp.live.batch.gro_splits"
	MetricLiveBatchFallbacks      = "dmtp.live.batch.fallbacks"
	// MetricLiveTxErrors counts packets dropped by failed socket writes:
	// relay forwards and receiver control sends, which have no retry
	// path, and the sender packets a flush gives up once its redial
	// budget is spent.
	MetricLiveTxErrors = "dmtp.live.tx.errors"

	// Packet-pool metrics: the live relay's wire.StashLog, the only role
	// with a pool worth reporting (hits are entries carved from its arena).
	MetricPoolGets     = "wire.pool.gets"
	MetricPoolHits     = "wire.pool.hits"
	MetricPoolMisses   = "wire.pool.misses"
	MetricPoolOversize = "wire.pool.oversize"

	// Process-level metrics (RegisterProcessMetrics).
	MetricProcUptime     = "proc.uptime_seconds"
	MetricProcGoroutines = "proc.goroutines"
	MetricProcHeapBytes  = "proc.heap_bytes"
	MetricProcGCRuns     = "proc.gc_runs"

	// Flight-recorder self-metrics (RegisterFlightMetrics).
	MetricFlightRecorded = "flight.events_recorded"
	MetricFlightCapacity = "flight.capacity"

	// Debug-endpoint self-metrics (internal/debugsrv).
	MetricDebugRequests = "debug.http_requests"
	MetricDebugScrapeNs = "debug.scrape_ns"

	// Fleet-monitor self-metrics (internal/monitor), served on the
	// monitor daemon's own debug endpoint.
	MetricMonScrapes      = "mon.scrapes"
	MetricMonScrapeErrors = "mon.scrape_errors"
	MetricMonTargetsUp    = "mon.targets_up"
	MetricMonAlertsRaised = "mon.alerts_raised"
	MetricMonAlertsActive = "mon.alerts_active"
	MetricMonScrapeNs     = "mon.scrape_ns"
)

// Info describes one catalogued metric (or, when Name ends in '*', a
// family of metrics sharing a prefix).
type Info struct {
	// Name is the exact metric name, or a prefix ending in '*' matching a
	// dynamically named family.
	Name string
	Kind Kind
	// Unit is the value's unit ("packets", "bytes", "ns", …).
	Unit string
	// Help is the one-line operator-facing semantics.
	Help string
}

// Catalog lists every metric the transport layers export, in the order
// OBSERVABILITY.md documents them. Tests enforce that (a) the doc and this
// list agree exactly and (b) every name a fully wired registry exports is
// covered here.
var Catalog = []Info{
	{MetricRxReceived, KindGauge, "packets", "data packets ingested by the receiver engine"},
	{MetricRxBytes, KindGauge, "bytes", "wire bytes ingested by the receiver engine"},
	{MetricRxDelivered, KindGauge, "messages", "messages handed to the application"},
	{MetricRxDuplicates, KindGauge, "packets", "duplicate data packets discarded"},
	{MetricRxGapsDetected, KindGauge, "seqs", "sequence numbers that entered loss recovery"},
	{MetricRxNAKsSent, KindGauge, "packets", "NAK packets emitted toward the upstream buffer"},
	{MetricRxRecovered, KindGauge, "packets", "packets restored by NAK retransmission"},
	{MetricRxWriteOffs, KindGauge, "seqs", "sequence numbers written off as permanent loss after MaxNAKs"},
	{MetricRxAged, KindGauge, "packets", "packets delivered with the age budget exceeded"},
	{MetricRxLate, KindGauge, "packets", "packets that missed their delivery deadline"},
	{MetricRxUnsequenced, KindGauge, "packets", "packets delivered outside any sequenced stream (mode 0)"},
	{MetricRxRejected, KindGauge, "packets", "packets dropped by the MaxSeqJump guard: sequence number implausibly far ahead"},
	{MetricRxMalformed, KindGauge, "packets", "datagrams the receiver could not read: failed the header check"},
	{MetricRxOutstandingGaps, KindGauge, "seqs", "sequence numbers currently awaiting recovery"},
	{MetricRxLatencyP50, KindGauge, "ns", "median origin→delivery latency"},
	{MetricRxLatencyP99, KindGauge, "ns", "99th-percentile origin→delivery latency"},
	{MetricBufStashed, KindGauge, "packets", "packets stashed into the retransmission buffer"},
	{MetricBufStashedBytes, KindGauge, "bytes", "cumulative bytes stashed"},
	{MetricBufEvicted, KindGauge, "packets", "stash entries evicted for capacity (oldest first)"},
	{MetricBufTrimmed, KindGauge, "packets", "stash entries released by cumulative ACKs"},
	{MetricBufRefused, KindGauge, "packets", "stash inserts refused: sequence number at or below the newest held — a re-adopted retransmission or a non-ascending journal record"},
	{MetricBufNAKsServed, KindGauge, "packets", "NAK packets served from the stash"},
	{MetricBufRetransmits, KindGauge, "packets", "retransmissions sent in response to NAKs"},
	{MetricBufNAKMisses, KindGauge, "seqs", "NAKed sequence numbers no longer buffered (evicted, trimmed, or lost to a crash)"},
	{MetricBufCrashes, KindGauge, "events", "buffer crash events, one per shard per crash (chaos testing / process death)"},
	{MetricBufOccupancyBytes, KindGauge, "bytes", "current retransmission-buffer occupancy"},
	{MetricBufStashImbalance, KindGauge, "bytes", "stash accounting imbalance (stashed − released − occupancy, summed over shards under one lock hold); nonzero means a buffer byte leak"},
	{MetricBufShardOccupancyPrefix + "*", KindGauge, "bytes", "current retransmission-buffer occupancy, one gauge per shard"},
	{MetricJournalAppends, KindGauge, "records", "stash inserts journalled to the write-ahead log"},
	{MetricJournalAppendBytes, KindGauge, "bytes", "stash payload bytes journalled by those appends"},
	{MetricJournalTombstones, KindGauge, "records", "release records journalled (capacity evictions plus cumulative-ACK trims)"},
	{MetricJournalFsyncs, KindGauge, "syncs", "fsync calls issued by the journal writers (one per take under -journal-sync batch)"},
	{MetricJournalFsyncNs, KindHist, "ns", "fsync latency of the journal writers"},
	{MetricJournalSegmentsRecycled, KindGauge, "segments", "journal segment files deleted once every entry in them was trimmed or evicted"},
	{MetricJournalReplayed, KindGauge, "records", "stash entries rebuilt from the journal by recovery (startup open plus crash replays)"},
	{MetricJournalTruncatedTails, KindGauge, "events", "torn final-segment tails truncated during recovery"},
	{MetricJournalWriteErrors, KindGauge, "errors", "failed journal segment writes, fsyncs, closes and opens (ENOSPC, a dying disk): durability lost while the relay carries on"},
	{MetricJournalAppendBlockedNs, KindGauge, "ns", "cumulative time the relay's hot path waited for room in a full journal stage; its rate is the fraction of the relay loop the disk is holding"},
	{MetricJournalPending, KindGauge, "records", "journal flush lag: records staged for the writers but not yet in the segment files"},
	{MetricJournalRecoveryAppended, KindGauge, "records", "append records scanned by the most recent journal recovery (summed across shards)"},
	{MetricJournalRecoveryTombstoned, KindGauge, "records", "entry removals applied by the most recent journal recovery (tombstones, trim sweeps, overwrites)"},
	{MetricJournalRecoveryReplayed, KindGauge, "records", "stash entries the most recent journal recovery rebuilt; appended − tombstoned must equal this"},
	{MetricTxSent, KindGauge, "packets", "data packets emitted by the sender"},
	{MetricTxSentBytes, KindGauge, "bytes", "wire bytes emitted by the sender (simulator substrate)"},
	{MetricTxSendErrors, KindGauge, "errors", "socket writes that failed, one per failed flush write, however many packets it carried (live substrate)"},
	{MetricTxReconnects, KindGauge, "events", "successful redials after a write error (live substrate)"},
	{MetricTxQueued, KindGauge, "packets", "packets that waited for pacing tokens (simulator substrate)"},
	{MetricTxBackPressure, KindGauge, "signals", "back-pressure signals received by the sender (simulator substrate)"},
	{MetricTxDeadlineMisses, KindGauge, "signals", "deadline-exceeded notifications received (simulator substrate)"},
	{MetricRelayUpgraded, KindGauge, "packets", "mode-0 packets upgraded into the reliable WAN mode"},
	{MetricRelayForwarded, KindGauge, "packets", "data packets forwarded downstream"},
	{MetricRelayInjectedDrops, KindGauge, "packets", "packets deliberately dropped by -drop-every fault injection"},
	{MetricRelayRepointed, KindGauge, "packets", "transit packets re-homed to this buffer (StashTransit, simulator substrate)"},
	{MetricRelayDroppedDown, KindGauge, "packets", "frames discarded while the buffer was crashed (simulator substrate)"},
	{MetricRelayMalformed, KindGauge, "packets", "datagrams the relay could not read: failed the header check, or a NAK or ACK that would not decode"},
	{MetricRelayReshapePrefix + "*", KindGauge, "packets", "reshapes performed, one gauge per resulting config ID (the relay's upgrade count, read at scrape time)"},
	{MetricRelayFlowsActive, KindGauge, "flows", "flows currently registered in the relay's flow table"},
	{MetricRelayFlowsOpened, KindGauge, "flows", "flows ever registered (first packet seen)"},
	{MetricRelayFlowsExpired, KindGauge, "flows", "flows dropped after exceeding the idle TTL"},
	{MetricRelayFlowsRejected, KindGauge, "flows", "flow registrations refused: the table was full (MaxFlows)"},
	{MetricTraceSampled, KindGauge, "messages", "sampled traced messages delivered to the span collector"},
	{MetricTraceDropped, KindGauge, "records", "trace records discarded by the collector's bounded ring"},
	{MetricTraceRecoveryNs, KindHist, "ns", "gap-detection → delivery latency of NAK-recovered sampled messages"},
	{MetricTraceSegmentOWDPrefix + "*", KindHist, "ns", "per-segment one-way delay of sampled messages, one histogram per hop-span position"},
	{MetricLiveBatchPktsPerSyscall, KindHist, "packets", "wire packets moved per batched syscall (sendmmsg/recvmmsg/GSO super-send)"},
	{MetricLiveBatchGSOSegments, KindGauge, "packets", "wire packets coalesced into UDP GSO super-datagrams on send"},
	{MetricLiveBatchGROSplits, KindGauge, "packets", "wire packets recovered by splitting GRO-coalesced datagrams on receive"},
	{MetricLiveBatchFallbacks, KindGauge, "operations", "batch operations served by the portable single-syscall path"},
	{MetricLiveTxErrors, KindGauge, "packets", "packets dropped by failed socket writes: relay forwards and receiver control sends (no retry path), and the sender packets given up once the flush's redial budget is spent"},
	{MetricPoolGets, KindGauge, "buffers", "stash entries the relay asked its stash log for (live relay only)"},
	{MetricPoolHits, KindGauge, "buffers", "stash entries carved from the log's arena (live relay only)"},
	{MetricPoolMisses, KindGauge, "buffers", "stash entries that fell back to a heap allocation: no empty segment, or larger than one (live relay only)"},
	{MetricPoolOversize, KindGauge, "buffers", "stash entries larger than a segment, a subset of the misses (live relay only)"},
	{MetricProcUptime, KindGauge, "seconds", "process uptime"},
	{MetricProcGoroutines, KindGauge, "goroutines", "live goroutines"},
	{MetricProcHeapBytes, KindGauge, "bytes", "heap in use (runtime.MemStats.HeapAlloc)"},
	{MetricProcGCRuns, KindGauge, "collections", "completed garbage-collection cycles"},
	{MetricFlightRecorded, KindGauge, "events", "protocol events recorded since start (including overwritten)"},
	{MetricFlightCapacity, KindGauge, "events", "flight-recorder ring capacity"},
	{MetricDebugRequests, KindCounter, "requests", "HTTP requests served by the debug endpoint"},
	{MetricDebugScrapeNs, KindHist, "ns", "time to render one /metrics or /events response"},
	{MetricMonScrapes, KindCounter, "sweeps", "scrape sweeps completed by the fleet monitor"},
	{MetricMonScrapeErrors, KindCounter, "errors", "target scrapes that failed (connection refused, bad JSON, timeout)"},
	{MetricMonTargetsUp, KindGauge, "targets", "targets whose most recent scrape succeeded"},
	{MetricMonAlertsRaised, KindCounter, "alerts", "invariant alerts ever raised by the watchdogs"},
	{MetricMonAlertsActive, KindGauge, "alerts", "alerts whose condition held in the most recent scrape window"},
	{MetricMonScrapeNs, KindHist, "ns", "wall time of one full scrape sweep across all targets"},
}

// nonMonotone lists the exported metrics that may legitimately decrease
// between scrapes: instantaneous gauges, latency quantiles, latest-recovery
// snapshots, and process/monitor state. Everything else in the catalogue is
// cumulative, which is what the monitor's monotone-counter watchdog relies
// on.
var nonMonotone = map[string]bool{
	MetricRxOutstandingGaps:         true,
	MetricRxLatencyP50:              true,
	MetricRxLatencyP99:              true,
	MetricBufOccupancyBytes:         true,
	MetricBufStashImbalance:         true,
	MetricRelayFlowsActive:          true,
	MetricJournalPending:            true,
	MetricJournalRecoveryAppended:   true,
	MetricJournalRecoveryTombstoned: true,
	MetricJournalRecoveryReplayed:   true,
	MetricProcGoroutines:            true,
	MetricProcHeapBytes:             true,
	MetricMonTargetsUp:              true,
	MetricMonAlertsActive:           true,
}

// Monotone reports whether the named metric is expected to never decrease
// over the lifetime of one process (histogram samples count as monotone:
// their snapshot value is the observation count). The monitor's
// monotone-counter watchdog checks only metrics this reports true for,
// and suspends the check across a detected process restart
// (proc.uptime_seconds decreasing).
func Monotone(name string) bool {
	if nonMonotone[name] {
		return false
	}
	// Per-shard occupancy gauges fluctuate like the aggregate one.
	if strings.HasPrefix(name, MetricBufShardOccupancyPrefix) {
		return false
	}
	return true
}

// CatalogCovers reports whether name is documented in Catalog, either
// exactly or via a '*'-suffixed family entry.
func CatalogCovers(name string) bool {
	for _, info := range Catalog {
		if info.Name == name {
			return true
		}
		if strings.HasSuffix(info.Name, "*") && strings.HasPrefix(name, strings.TrimSuffix(info.Name, "*")) {
			return true
		}
	}
	return false
}
