package dmtp

import (
	"repro/internal/metrics"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// This file holds the shared metric-registration helpers. Both substrate
// adapters publish their receiver counters through these functions (the
// relay's go through RelayEngine.RegisterMetrics), which use only the
// canonical name constants from internal/metrics — so a simulator run and
// a live daemon export identical metric names by construction.
//
// All helpers register sampled func gauges: the adapter supplies a snapshot
// closure that is invoked only when the registry is scraped, so the
// steady-state datapath cost of registration is zero.

// RegisterReceiverMetrics publishes the dmtp.rx.* counter set on reg,
// sampling snap at scrape time. snap must be safe to call from the scrape
// goroutine (adapters typically wrap Stats() in their own lock).
func RegisterReceiverMetrics(reg *metrics.Registry, snap func() ReceiverStats) {
	reg.RegisterFunc(metrics.MetricRxReceived, func() int64 { return int64(snap().Received) })
	reg.RegisterFunc(metrics.MetricRxBytes, func() int64 { return int64(snap().Bytes) })
	reg.RegisterFunc(metrics.MetricRxDelivered, func() int64 { return int64(snap().Delivered) })
	reg.RegisterFunc(metrics.MetricRxDuplicates, func() int64 { return int64(snap().Duplicates) })
	reg.RegisterFunc(metrics.MetricRxGapsDetected, func() int64 { return int64(snap().GapsSeen) })
	reg.RegisterFunc(metrics.MetricRxNAKsSent, func() int64 { return int64(snap().NAKsSent) })
	reg.RegisterFunc(metrics.MetricRxRecovered, func() int64 { return int64(snap().Recovered) })
	reg.RegisterFunc(metrics.MetricRxWriteOffs, func() int64 { return int64(snap().Lost) })
	reg.RegisterFunc(metrics.MetricRxAged, func() int64 { return int64(snap().Aged) })
	reg.RegisterFunc(metrics.MetricRxLate, func() int64 { return int64(snap().Late) })
	reg.RegisterFunc(metrics.MetricRxUnsequenced, func() int64 { return int64(snap().Unsequenced) })
	reg.RegisterFunc(metrics.MetricRxRejected, func() int64 { return int64(snap().Rejected) })
}

// RegisterReceiverGauges publishes the receiver's instantaneous gauges:
// outstanding gaps and latency quantiles. latency may return (0, 0) when no
// latency histogram is wired; gaps and latency are sampled at scrape time
// under the adapter's lock.
func RegisterReceiverGauges(reg *metrics.Registry, gaps func() int, latency func() (p50, p99 int64)) {
	reg.RegisterFunc(metrics.MetricRxOutstandingGaps, func() int64 { return int64(gaps()) })
	reg.RegisterFunc(metrics.MetricRxLatencyP50, func() int64 { p50, _ := latency(); return p50 })
	reg.RegisterFunc(metrics.MetricRxLatencyP99, func() int64 { _, p99 := latency(); return p99 })
}

// FlowStats are a relay's flow-table counters (see dmtp.relay.flows.*).
type FlowStats struct {
	// Active is the number of currently registered flows.
	Active uint64
	// Opened counts flows ever registered (first packet seen).
	Opened uint64
	// Expired counts flows dropped after exceeding the idle TTL.
	Expired uint64
	// Rejected counts registrations refused because the table was full
	// (MaxFlows).
	Rejected uint64
}

// RegisterTraceMetrics publishes the dmtp.trace.* set on reg: the collector's
// sampled/dropped gauges plus the per-segment one-way-delay and recovery-
// latency histograms. Like the other Register* helpers it pins the canonical
// names on both substrates; the histograms are fed by Collector.Observe.
func RegisterTraceMetrics(reg *metrics.Registry, c *tracespan.Collector) {
	c.RegisterMetrics(reg)
}

// RegisterPoolMetrics publishes a packet pool's traffic counters
// (wire.pool.*) on reg, sampled from stats at scrape time. Only the live
// relay registers them, for its stash log: no other role owns a pool whose
// traffic says anything. stats must be safe to call from the scrape
// goroutine.
func RegisterPoolMetrics(reg *metrics.Registry, stats func() wire.PoolStats) {
	reg.RegisterFunc(metrics.MetricPoolGets, func() int64 { return int64(stats().Gets) })
	reg.RegisterFunc(metrics.MetricPoolHits, func() int64 { return int64(stats().Hits) })
	reg.RegisterFunc(metrics.MetricPoolMisses, func() int64 { return int64(stats().Misses()) })
	reg.RegisterFunc(metrics.MetricPoolOversize, func() int64 { return int64(stats().Oversize) })
}
