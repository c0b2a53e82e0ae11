package dmtp

import "repro/internal/metrics"

// This file holds the receiver's metric set. Both substrate adapters
// publish their receivers through RegisterReceiverMetrics (and their relays
// through RelayEngine.RegisterMetrics), which use only the canonical name
// constants from internal/metrics — so a simulator run and a live daemon
// export identical metric names by construction.
//
// Every publisher registers one sampled set (metrics.Registry.RegisterSet):
// the registry calls it once per scrape and the adapter reads all of its
// values under one hold of its own lock, so one scrape's values come from
// one instant and the datapath pays nothing until somebody scrapes.

// receiverNames are the dmtp.rx.* names, in the order
// RegisterReceiverMetrics fills them.
var receiverNames = []string{
	metrics.MetricRxReceived,
	metrics.MetricRxBytes,
	metrics.MetricRxDelivered,
	metrics.MetricRxDuplicates,
	metrics.MetricRxGapsDetected,
	metrics.MetricRxNAKsSent,
	metrics.MetricRxRecovered,
	metrics.MetricRxWriteOffs,
	metrics.MetricRxAged,
	metrics.MetricRxLate,
	metrics.MetricRxUnsequenced,
	metrics.MetricRxRejected,
	metrics.MetricRxOutstandingGaps,
	metrics.MetricRxLatencyP50,
	metrics.MetricRxLatencyP99,
}

// RegisterReceiverMetrics publishes the dmtp.rx.* set on reg, followed by
// the adapter's own names in extra, as one set. read runs once per scrape:
// it fills dst (len(extra) long) with extra's values and returns the
// receiver's engine stats, outstanding gaps and latency quantiles (zero
// when no latency histogram is wired), all read under one hold of the
// adapter's lock. read must be safe to call from the scrape goroutine.
func RegisterReceiverMetrics(reg *metrics.Registry, extra []string, read func(dst []int64) (s ReceiverStats, gaps int, p50, p99 int64)) {
	n := len(receiverNames)
	reg.RegisterSet(append(receiverNames[:n:n], extra...), func(dst []int64) {
		s, gaps, p50, p99 := read(dst[n:])
		for i, v := range [...]uint64{s.Received, s.Bytes, s.Delivered, s.Duplicates, s.GapsSeen,
			s.NAKsSent, s.Recovered, s.Lost, s.Aged, s.Late, s.Unsequenced, s.Rejected} {
			dst[i] = int64(v)
		}
		dst[12], dst[13], dst[14] = int64(gaps), p50, p99
	})
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
