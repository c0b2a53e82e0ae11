package main

import (
	"slices"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/wire"
)

// ratio is a/b, zero when b is zero: a layer that did no work reports 0,
// not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts derives the per-layer metrics that are pure counter
// differences across the closed-loop phase (c0 → c1). They cost nothing to
// collect, so untraced rounds report them too, as diagnostics.
func (r *run) layerCounts(m map[string]float64, c0, c1, end *counters, sysFrac float64) {
	msgs := float64(c1.good - c0.good)
	d := func(a, b uint64) float64 { return float64(b - a) }

	retx := d(c0.rly.Retransmits, c1.rly.Retransmits)
	m["dmtp.retransmits_per_kmsg"] = ratio(retx*1000, msgs)
	m["dmtp.naks_per_kmsg"] = ratio(d(c0.rcv.NAKsSent, c1.rcv.NAKsSent)*1000, msgs)
	m["dmtp.nak_useful_ratio"] = ratio(d(c0.rcv.Recovered, c1.rcv.Recovered), retx)
	m["dmtp.duplicates_per_kmsg"] = ratio(d(c0.rcv.Duplicates, c1.rcv.Duplicates)*1000, msgs)

	m["journal.records_per_msg"] = ratio(d(c0.jr.Appends, c1.jr.Appends)+d(c0.jr.Tombstones, c1.jr.Tombstones), msgs)
	m["journal.bytes_per_msg"] = ratio(d(c0.jr.AppendBytes, c1.jr.AppendBytes), msgs)
	m["journal.fsyncs_per_kmsg"] = ratio(d(c0.jr.Fsyncs, c1.jr.Fsyncs)*1000, msgs)

	m["metrics.events_per_msg"] = ratio(d(c0.events, c1.events), msgs)
	m["wire.pool_miss_ratio"] = ratio(d(c0.pool.Misses(), c1.pool.Misses()), d(c0.pool.Gets, c1.pool.Gets))

	perSyscall := func(a, b live.BatchStats) float64 {
		return ratio(d(a.SentPackets, b.SentPackets)+d(a.RecvPackets, b.RecvPackets), d(a.Syscalls, b.Syscalls))
	}
	m["live.sender.pkts_per_syscall"] = perSyscall(c0.sndB, c1.sndB)
	m["live.relay.pkts_per_syscall"] = perSyscall(c0.rlyB, c1.rlyB)
	m["live.receiver.pkts_per_syscall"] = perSyscall(c0.rcvB, c1.rcvB)
	m["live.relay.gso_frac"] = ratio(d(c0.rlyB.GSOSegments, c1.rlyB.GSOSegments), d(c0.rlyB.SentPackets, c1.rlyB.SentPackets))
	m["live.sys_cpu_frac"] = sysFrac

	// Must-be-zero counters are taken over the whole round, not one phase.
	m["live.batch_fallbacks"] = float64(end.sndB.Fallbacks + end.rlyB.Fallbacks + end.rcvB.Fallbacks)
	m["live.relay_rx_dropped"] = float64(end.snd.Sent) - float64(end.rly.Upgraded)
	m["live.tx_errors"] = float64(end.snd.SendErrors + end.rly.TxErrors + end.rcv.TxErrors)
}

// layerTraced adds what only a traced round collects: the sampled gauges,
// the in-band hop stamps, allocation counts and the cost of Send.
func (r *run) layerTraced(m map[string]float64, c0, c1 *counters, smp *sampler, pacedAt time.Time) {
	msgs := float64(c1.good - c0.good)
	m["dmtp.evictions_per_kmsg"] = ratio(float64(c1.evicted-c0.evicted)*1000, msgs)
	m["dmtp.outstanding_gaps_mean"] = ratio(float64(smp.gaps), float64(smp.n))
	m["journal.pending_mean"] = ratio(float64(smp.jrPend), float64(smp.n))
	slices.Sort(r.recLat)
	m["dmtp.recovery_lat_p50_us"] = float64(percentile(r.recLat, 0.5)) / 1e3
	m["live.sender.send_ns_per_msg"] = ratio(float64(r.sendNs), float64(r.sendN))
	m["live.allocs_per_msg"] = ratio(float64(c1.mem.Mallocs-c0.mem.Mallocs), msgs)
	m["live.gc_cycles_per_mmsg"] = ratio(float64(c1.mem.NumGC-c0.mem.NumGC)*1e6, msgs)

	// Hop stamps of sampled, first-try deliveries in the paced phase:
	// tx → relay upgrade → delivery.
	var txRelay, relayRx []int64
	for _, rec := range r.tracer.Records() {
		if rec.Recovered || rec.DeliveredAt < pacedAt.UnixNano() || len(rec.Hops) < 2 ||
			rec.Hops[0].Hop != wire.TraceHopTx {
			continue
		}
		txRelay = append(txRelay, rec.Hops[1].At-rec.Hops[0].At)
		relayRx = append(relayRx, rec.DeliveredAt-rec.Hops[1].At)
	}
	slices.Sort(txRelay)
	slices.Sort(relayRx)
	m["live.hop_tx_relay_p50_us"] = float64(percentile(txRelay, 0.5)) / 1e3
	m["live.hop_relay_rx_p50_us"] = float64(percentile(relayRx, 0.5)) / 1e3
}

// batchCaps reports, per role, which kernel-batch features its socket
// probed to. The receiver exposes no probe result, so its entry is what its
// counters show in use.
func (r *run) batchCaps() map[string]string {
	render := func(c live.BatchCaps) string {
		var on []string
		for _, f := range []struct {
			name string
			ok   bool
		}{{"mmsg", c.Mmsg}, {"gso", c.GSO}, {"gro", c.GRO}} {
			if f.ok {
				on = append(on, f.name)
			}
		}
		if on == nil {
			return "portable"
		}
		return strings.Join(on, "+")
	}
	rb := r.rcv.BatchStats()
	return map[string]string{
		"sender":   render(r.snd.BatchCaps()),
		"relay":    render(r.rly.BatchCaps()),
		"receiver": render(live.BatchCaps{Mmsg: rb.Syscalls > 0 && rb.Fallbacks == 0, GRO: rb.GROSplits > 0}),
	}
}
