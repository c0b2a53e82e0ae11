// Repository-level benchmarks: one per table/figure of the paper plus the
// ablations from DESIGN.md. Each bench runs the corresponding experiment
// from internal/experiments and reports its headline quantities as custom
// metrics, so `go test -bench=. -benchmem` regenerates the paper's
// evaluation (cmd/benchtab prints the same results as readable tables).
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/pilot"
	"repro/internal/wire"
)

// BenchmarkTable1DAQRates regenerates Table 1: every catalog workload
// generator run at 1/1000 of the published DAQ rate.
func BenchmarkTable1DAQRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.E1Table1(1000, 1000, 1)
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.MeasuredBps/r.TargetBps, "rateRatio/"+sanitize(r.Name))
			}
		}
	}
}

// BenchmarkFig2BaselineChain regenerates the Fig. 2 characterisation of
// today's UDP + split tuned-TCP chain.
func BenchmarkFig2BaselineChain(b *testing.B) {
	var res experiments.E2Results
	for i := 0; i < b.N; i++ {
		res = experiments.E2Fig2Baseline(experiments.E2Config{Seed: 1, Messages: 1000, WANLoss: 1e-3})
	}
	b.ReportMetric(res.FCT.Seconds()*1000, "fct-ms")
	b.ReportMetric(float64(res.WANRetransmits), "wan-retx")
	b.ReportMetric(res.HOLp99.Seconds()*1000, "hol-p99-ms")
}

// BenchmarkFig3MultiModal regenerates the Fig. 3 goal-scenario comparison:
// the DMTP-vs-TCP loss sweep.
func BenchmarkFig3MultiModal(b *testing.B) {
	for _, loss := range []float64{0, 1e-3, 1e-2} {
		loss := loss
		b.Run(fmt.Sprintf("loss=%g", loss), func(b *testing.B) {
			var rows []experiments.E3LossRow
			for i := 0; i < b.N; i++ {
				rows = experiments.E3LossSweep([]float64{loss}, 500, 2)
			}
			r := rows[0]
			b.ReportMetric(r.Speedup, "tcp/dmtp-fct")
			b.ReportMetric(r.DMTPFCT.Seconds()*1000, "dmtp-fct-ms")
			b.ReportMetric(r.TCPFCT.Seconds()*1000, "tcp-fct-ms")
		})
	}
}

// BenchmarkFig3AlertFanout regenerates the in-network duplication part of
// Fig. 3 (multi-domain alerts, Req 10).
func BenchmarkFig3AlertFanout(b *testing.B) {
	var res experiments.E3AlertResults
	for i := 0; i < b.N; i++ {
		res = experiments.E3AlertFanout(200, 3)
	}
	b.ReportMetric(res.DMTPp50.Seconds()*1000, "dmtp-p50-ms")
	b.ReportMetric(res.BaseP50.Seconds()*1000, "tcp-p50-ms")
}

// BenchmarkFig3BackPressure regenerates the back-pressure part of Fig. 3.
func BenchmarkFig3BackPressure(b *testing.B) {
	var res experiments.E3BackPressureResults
	for i := 0; i < b.N; i++ {
		res = experiments.E3BackPressure(2000, 4)
	}
	b.ReportMetric(float64(res.WithoutSignals), "drops-off")
	b.ReportMetric(float64(res.WithSignals), "drops-on")
}

// BenchmarkFig4Pilot regenerates the §5.4 pilot study across its operating
// points.
func BenchmarkFig4Pilot(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  pilot.Config
	}{
		{"clean", pilot.Config{Seed: 1, Messages: 2000}},
		{"lossyWAN", pilot.Config{Seed: 1, Messages: 2000, WANLoss: 1e-3}},
		{"supernova", pilot.Config{Seed: 1, Messages: 1000, Supernova: true}},
		{"encrypted", pilot.Config{Seed: 1, Messages: 1000, Encrypt: true}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var res pilot.Results
			for i := 0; i < b.N; i++ {
				var err error
				res, err = pilot.Run(tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.LinkUtilization, "utilization")
			b.ReportMetric(float64(res.Recovered), "recovered")
			b.ReportMetric(res.LatencyP50.Seconds()*1000, "lat-p50-ms")
		})
	}
}

// BenchmarkFaultTolerance regenerates E5: delivery completeness and
// recovery latency under seeded fault injection — burst loss, relay
// crash/restart, mid-flow crash (graceful degradation), reordering, and a
// scripted link flap.
func BenchmarkFaultTolerance(b *testing.B) {
	var rows []experiments.E5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.E5FaultTolerance(400, 11)
	}
	for _, r := range rows {
		name := sanitize(r.Label)
		b.ReportMetric(float64(r.Delivered)/float64(r.Sent), "delivered-frac/"+name)
		b.ReportMetric(float64(r.Recovered), "recovered/"+name)
		b.ReportMetric(float64(r.Lost), "lost/"+name)
		b.ReportMetric(r.RecoveryP50.Seconds()*1000, "rec-p50-ms/"+name)
	}
}

// BenchmarkAblationBufferPlacement regenerates A1: recovery latency vs
// retransmission-buffer position.
func BenchmarkAblationBufferPlacement(b *testing.B) {
	var rows []experiments.A1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.A1BufferPlacement(nil, 600, 5e-3, 6)
	}
	for _, r := range rows {
		b.ReportMetric(r.RecoveryP50.Seconds()*1000, fmt.Sprintf("rec-p50-ms/pos=%.2f", r.BufferPosition))
	}
}

// BenchmarkAblationHOLBlocking regenerates A2: bytestream head-of-line
// blocking vs message delivery.
func BenchmarkAblationHOLBlocking(b *testing.B) {
	var res experiments.A2Results
	for i := 0; i < b.N; i++ {
		res = experiments.A2HOLBlocking(5e-3, 1000, 7)
	}
	b.ReportMetric(res.TCPHOLp99.Seconds()*1000, "tcp-hol-p99-ms")
	b.ReportMetric(res.DMTPBlockP99.Seconds()*1000, "dmtp-p99-ms")
}

// BenchmarkAblationCapacityPlanning regenerates A4: paced coexistence on a
// capacity-planned link vs greedy TCP.
func BenchmarkAblationCapacityPlanning(b *testing.B) {
	var res experiments.A4Results
	for i := 0; i < b.N; i++ {
		res = experiments.A4CapacityPlanning(2000, 8)
	}
	b.ReportMetric(float64(res.DMTPDrops), "dmtp-drops")
	b.ReportMetric(float64(res.TCPRetransmits), "tcp-retx")
}

// BenchmarkAblationDeadlineAQM regenerates A5: fresh-traffic goodput under
// drop-tail vs deadline-aware queueing at an overloaded bottleneck.
func BenchmarkAblationDeadlineAQM(b *testing.B) {
	var res experiments.A5Results
	for i := 0; i < b.N; i++ {
		res = experiments.A5DeadlineAQM(1000, 9)
	}
	b.ReportMetric(float64(res.FreshDeliveredPlain), "fresh-droptail")
	b.ReportMetric(float64(res.FreshDeliveredAware), "fresh-aware")
	b.ReportMetric(float64(res.AgedEvicted), "aged-evicted")
}

// BenchmarkAblationBufferSizing regenerates A6: permanent loss vs DTN
// buffer capacity at full pilot rate.
func BenchmarkAblationBufferSizing(b *testing.B) {
	var rows []experiments.A6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.A6BufferSizing([]int{64 << 20, 512 << 20}, 10_000, 42)
	}
	b.ReportMetric(float64(rows[0].Lost), "lost-64MiB")
	b.ReportMetric(float64(rows[1].Lost), "lost-512MiB")
}

// BenchmarkWireCodec is ablation A3: per-packet header costs for the modes
// a 400 GbE DTN would process (Req 2: minimal overhead).
func BenchmarkWireCodec(b *testing.B) {
	payload := make([]byte, 7680)
	modes := []struct {
		name     string
		features wire.Features
	}{
		{"mode0-bare", 0},
		{"wan-mode", wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked | wire.FeatTimely | wire.FeatTimestamped},
		{"all-features", wire.AllFeatures},
	}
	for _, m := range modes {
		m := m
		h := wire.Header{ConfigID: 1, Features: m.features, Experiment: wire.NewExperimentID(7, 1)}
		b.Run("encode/"+m.name, func(b *testing.B) {
			buf := make([]byte, 0, 128)
			b.SetBytes(int64(h.WireSize() + len(payload)))
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = h.AppendTo(buf[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		enc, err := h.AppendTo(nil)
		if err != nil {
			b.Fatal(err)
		}
		enc = append(enc, payload...)
		b.Run("decode/"+m.name, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			var got wire.Header
			for i := 0; i < b.N; i++ {
				if _, err := got.DecodeFromBytes(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// The in-flight element operations a P4 pipeline performs per packet.
	h := wire.Header{ConfigID: 1, Features: wire.FeatSequenced | wire.FeatAgeTracked | wire.FeatTimestamped}
	enc, err := h.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	enc = append(enc, payload...)
	v := wire.View(enc)
	b.Run("element/add-age", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := v.AddAge(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A mode change as an element runs it: the 1 → 2 transition compiled
	// once, then applied into a reused buffer, as the relay applies its
	// upgrade.
	rec, err := wire.CompileReshape(h.Features, 2, h.Features|wire.FeatReliable, func(wire.View, uint64, int64) {})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("element/mode-change", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst = rec.Apply(dst, v, 0, int64(i))
		}
	})
}

// BenchmarkPilotThroughput measures simulator execution speed itself:
// simulated gigabits per wall-clock second for the clean pilot.
func BenchmarkPilotThroughput(b *testing.B) {
	start := time.Now()
	var simBits float64
	for i := 0; i < b.N; i++ {
		res, err := pilot.Run(pilot.Config{Seed: int64(i), Messages: 1000})
		if err != nil {
			b.Fatal(err)
		}
		simBits += float64(res.Sent) * 7708 * 8
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		b.ReportMetric(simBits/1e9/wall, "simGb/s")
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '-'
		}
		out = append(out, r)
	}
	return string(out)
}
