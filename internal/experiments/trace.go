package experiments

import (
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// TraceSegRow is one hop-span position's one-way-delay quantiles, as fed
// into the dmtp.trace.segment_owd_ns.seg* histogram family by a fully
// sampled run.
type TraceSegRow struct {
	Segment string
	Count   uint64
	P50     time.Duration
	P99     time.Duration
}

// TraceOWDResult is the per-segment OWD profile of a fully traced sim run:
// every message carries a FeatTraced extension, the receiver's span
// collector reconstructs the hop timeline, and the quantiles below are
// read straight from the histograms the collector publishes.
type TraceOWDResult struct {
	Sampled     uint64
	Recovered   uint64
	Segments    []TraceSegRow
	RecoveryP50 time.Duration
	RecoveryP99 time.Duration
}

// TraceOWD runs a short traced pipeline (sender → reshaping buffer node →
// receiver over netsim, TraceSample = 1, a scripted egress loss every 25th
// packet recovered via NAK) and reports the per-segment one-way delay and
// recovery-latency quantiles reconstructed from the in-band hop stamps.
func TraceOWD(messages int, seed int64) TraceOWDResult {
	nw := netsim.New(1)
	var drops []uint64
	for i := uint64(25); i <= uint64(messages); i += 25 {
		drops = append(drops, i)
	}
	plan := faults.New(faults.Spec{Seed: seed, DropPackets: drops})
	tracer := tracespan.NewCollector(0)
	reg := metrics.NewRegistry()
	tracer.RegisterMetrics(reg)

	mode := core.Mode{
		Name:     "traced",
		ConfigID: 1,
		Features: wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked |
			wire.FeatTimely | wire.FeatTimestamped,
	}
	recv := core.NewReceiver(nw, "recv", wire.AddrFrom(10, 0, 2, 1, 7000), core.ReceiverConfig{
		NAKDelay:    1500 * time.Microsecond,
		NAKRetry:    4 * time.Millisecond,
		NAKRetryMax: 12 * time.Millisecond,
		MaxNAKs:     3,
		Seed:        seed,
		Counters:    plan.Counters(),
		Tracer:      tracer,
	})
	dtn := core.NewBufferNode(nw, "dtn", wire.AddrFrom(10, 0, 1, 1, 7000), core.BufferConfig{
		UpgradeFrom: core.ModeBare.ConfigID,
		Upgrade:     mode,
		Forward:     wire.AddrFrom(10, 0, 2, 1, 7000),
		ForwardPort: 1,
		MaxAge:      time.Hour,
	})
	snd := core.NewSender(nw, "sensor", wire.AddrFrom(10, 0, 0, 1, 4000), core.SenderConfig{
		Experiment:  777,
		Dst:         wire.AddrFrom(10, 0, 1, 1, 7000),
		Mode:        core.ModeBare,
		TraceSample: 1,
	})
	nw.Connect(snd.Node(), dtn.Node(),
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond})
	nw.ConnectAsym(dtn.Node(), recv.Node(),
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond, Fault: faults.SimFault(plan)},
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond})

	payload := make([]byte, 512)
	for i := 1; i <= messages; i++ {
		nw.Loop().At(sim.Time(time.Duration(i)*100*time.Microsecond), func() {
			snd.Emit(payload, 0)
		})
	}
	nw.Loop().Run()

	res := TraceOWDResult{Sampled: tracer.Sampled()}
	for i := 0; i < wire.TraceHopSlots; i++ {
		h := reg.Histogram(metrics.MetricTraceSegmentOWDPrefix + strconv.Itoa(i+1))
		if h.Count() == 0 {
			continue
		}
		res.Segments = append(res.Segments, TraceSegRow{
			Segment: "seg" + strconv.Itoa(i+1),
			Count:   h.Count(),
			P50:     time.Duration(h.Quantile(0.5)),
			P99:     time.Duration(h.Quantile(0.99)),
		})
	}
	rec := reg.Histogram(metrics.MetricTraceRecoveryNs)
	res.Recovered = rec.Count()
	if rec.Count() > 0 {
		res.RecoveryP50 = time.Duration(rec.Quantile(0.5))
		res.RecoveryP99 = time.Duration(rec.Quantile(0.99))
	}
	return res
}

// Table renders the per-segment OWD profile.
func (r TraceOWDResult) Table() string {
	t := NewTable("segment", "spans", "owd p50", "owd p99")
	for _, s := range r.Segments {
		t.Row(s.Segment, s.Count, fmtDur(s.P50), fmtDur(s.P99))
	}
	t.Row("recovery", r.Recovered, fmtDur(r.RecoveryP50), fmtDur(r.RecoveryP99))
	return t.String()
}
