// Command benchtab regenerates the paper's tables and figures as readable
// text tables (the same experiments the root benchmarks run). Usage:
//
//	benchtab -exp all
//	benchtab -exp e3 -messages 1000 -seed 7
//	benchtab -json > bench.json
//	benchtab -exp e4 -metrics
//
// Experiment IDs follow DESIGN.md: e1 (Table 1), e2 (Fig 2), e3 (Fig 3:
// loss sweep + alert fan-out + back-pressure), e4 (Fig 4 pilot), e5
// (fault-tolerance chaos matrix), a1
// (buffer placement), a2 (HOL blocking), a4 (capacity planning), a5
// (deadline-aware AQM), a6 (buffer sizing), c1 (campaign fault-sweep
// matrix, aggregated by fault class; cmd/campaign runs the full sweep).
//
// With -json the tables are suppressed and a machine-readable benchmark
// document (schema "benchtab/v1") is written to stdout instead: run
// parameters plus per-experiment wall time. BENCH_baseline.json at the
// repo root embeds one such document; see EXPERIMENTS.md for the format
// and regeneration recipe.
//
// With -metrics each experiment additionally reports its metric deltas —
// the registry (shared packet-pool traffic plus process heap/GC gauges) is
// snapshotted around each run and the two snapshots are diffed — appended
// to the text tables and carried in the -json document's metric_deltas.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/dmtp"
	"repro/internal/experiments"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// expTiming is one experiment's entry in the -json document.
type expTiming struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	WallMs float64 `json:"wall_ms"`
	// MetricDeltas holds after−before registry samples for this
	// experiment (only with -metrics).
	MetricDeltas []metrics.Sample `json:"metric_deltas,omitempty"`
}

// traceSeg is one hop-span position's OWD quantiles in the -json document.
type traceSeg struct {
	Segment string `json:"segment"`
	Count   uint64 `json:"count"`
	P50Ns   int64  `json:"p50_ns"`
	P99Ns   int64  `json:"p99_ns"`
}

// benchDoc is the -json output document.
type benchDoc struct {
	Schema      string      `json:"schema"`
	Messages    int         `json:"messages"`
	Seed        int64       `json:"seed"`
	Experiments []expTiming `json:"experiments"`
	// TraceSegmentOWD carries the traced pipeline's per-segment one-way
	// delay profile (experiment t1), reconstructed from in-band hop stamps.
	TraceSegmentOWD []traceSeg `json:"trace_segment_owd,omitempty"`
	// FanIn carries the many-flow relay scale-out measurement (experiment
	// f1): offered/serviced/delivered rates plus per-flow fairness.
	FanIn *live.FanInResult `json:"fan_in,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id: e1,e2,e3,e4,e5,a1,a2,a4,a5,a6,t1,c1,f1 or all")
	seed := flag.Int64("seed", 1, "experiment seed")
	messages := flag.Int("messages", 1000, "messages per run")
	jsonOut := flag.Bool("json", false, "suppress tables; emit a benchtab/v1 JSON benchmark document")
	withMetrics := flag.Bool("metrics", false, "report per-experiment metric deltas (pool traffic, heap, GC)")
	flag.Parse()

	var reg *metrics.Registry
	if *withMetrics {
		reg = metrics.NewRegistry()
		dmtp.RegisterPoolMetrics(reg, wire.DefaultPoolStats)
		metrics.RegisterProcessMetrics(reg)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := want["all"]
	ran := 0

	out := io.Writer(os.Stdout)
	if *jsonOut {
		out = io.Discard
	}
	var timings []expTiming

	section := func(id, title string, run func(w io.Writer)) {
		if !all && !want[id] {
			return
		}
		ran++
		fmt.Fprintf(out, "=== %s — %s ===\n", strings.ToUpper(id), title)
		var before []metrics.Sample
		if reg != nil {
			before = reg.Snapshot()
		}
		start := time.Now()
		run(out)
		t := expTiming{
			ID: id, Title: title,
			WallMs: float64(time.Since(start).Microseconds()) / 1000,
		}
		if reg != nil {
			t.MetricDeltas = metrics.Diff(before, reg.Snapshot())
			if len(t.MetricDeltas) > 0 {
				fmt.Fprintln(out, "-- metric deltas --")
				for _, d := range t.MetricDeltas {
					fmt.Fprintf(out, "%-24s %+d\n", d.Name, d.Value)
				}
			}
		}
		timings = append(timings, t)
		fmt.Fprintln(out)
	}

	section("e1", "Table 1: DAQ rates (generators at 1/1000 scale)", func(w io.Writer) {
		fmt.Fprint(w, experiments.E1TableString(experiments.E1Table1(1000, *messages, *seed)))
	})
	section("e2", "Fig 2: today's transport chain, measured", func(w io.Writer) {
		res := experiments.E2Fig2Baseline(experiments.E2Config{Seed: *seed, Messages: *messages, WANLoss: 1e-3})
		fmt.Fprint(w, res.Table())
	})
	section("e3", "Fig 3: multi-modal transport vs today's chain", func(w io.Writer) {
		fmt.Fprintln(w, "-- flow completion under WAN loss --")
		fmt.Fprint(w, experiments.E3LossTable(experiments.E3LossSweep(nil, *messages, *seed)))
		fmt.Fprintln(w, "\n-- multi-domain alert distribution --")
		fmt.Fprint(w, experiments.E3AlertFanout(*messages/2, *seed).Table())
		fmt.Fprintln(w, "\n-- back-pressure at a 1 Gbps bottleneck --")
		fmt.Fprint(w, experiments.E3BackPressure(2*(*messages), *seed).Table())
	})
	section("e4", "Fig 4 / §5.4: pilot study", func(w io.Writer) {
		fmt.Fprint(w, experiments.E4Table(experiments.E4Pilot(*messages, *seed)))
	})
	section("e5", "Fault tolerance: seeded chaos scenarios", func(w io.Writer) {
		fmt.Fprint(w, experiments.E5Table(experiments.E5FaultTolerance(*messages, *seed)))
	})
	section("a1", "Ablation: retransmission-buffer placement", func(w io.Writer) {
		fmt.Fprint(w, experiments.A1Table(experiments.A1BufferPlacement(nil, *messages, 5e-3, *seed)))
	})
	section("a2", "Ablation: head-of-line blocking", func(w io.Writer) {
		fmt.Fprint(w, experiments.A2HOLBlocking(5e-3, *messages, *seed).Table())
	})
	section("a4", "Ablation: capacity-planned coexistence", func(w io.Writer) {
		fmt.Fprint(w, experiments.A4CapacityPlanning(2*(*messages), *seed).Table())
	})
	section("a5", "Ablation: deadline-aware AQM", func(w io.Writer) {
		fmt.Fprint(w, experiments.A5DeadlineAQM(*messages, *seed).Table())
	})
	section("a6", "Ablation: retransmission-buffer sizing", func(w io.Writer) {
		fmt.Fprint(w, experiments.A6Table(experiments.A6BufferSizing(nil, 10*(*messages), *seed)))
	})
	section("c1", "Campaign: fault-sweep matrix, oracle-judged", func(w io.Writer) {
		fmt.Fprint(w, experiments.C1Table(experiments.C1Campaign(1, *seed)))
	})
	var traceOWD []traceSeg
	section("t1", "Traced pipeline: per-segment one-way delay", func(w io.Writer) {
		res := experiments.TraceOWD(*messages, *seed)
		fmt.Fprint(w, res.Table())
		for _, s := range res.Segments {
			traceOWD = append(traceOWD, traceSeg{
				Segment: s.Segment, Count: s.Count,
				P50Ns: int64(s.P50), P99Ns: int64(s.P99),
			})
		}
	})

	var fanIn *live.FanInResult
	section("f1", "Fan-in: many-flow relay scale-out on loopback", func(w io.Writer) {
		res, err := live.RunFanIn(live.FanInConfig{Messages: 10 * (*messages)})
		if err != nil {
			fmt.Fprintf(w, "fan-in failed: %v\n", err)
			return
		}
		fanIn = res
		fmt.Fprint(w, res.Table())
	})

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q (want e1,e2,e3,e4,e5,a1,a2,a4,a5,a6,t1,c1,f1 or all)\n", *exp)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchDoc{
			Schema: "benchtab/v1", Messages: *messages, Seed: *seed, Experiments: timings,
			TraceSegmentOWD: traceOWD,
			FanIn:           fanIn,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	}
}
