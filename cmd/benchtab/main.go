// Command benchtab regenerates the paper's tables and figures as readable
// text tables (the same experiments the root benchmarks run), all of them
// from the simulator. Usage:
//
//	benchtab -exp all
//	benchtab -exp e3 -messages 1000 -seed 7
//	benchtab -exp e4 -metrics
//
// Experiment IDs follow DESIGN.md: e1 (Table 1), e2 (Fig 2), e3 (Fig 3:
// loss sweep + alert fan-out + back-pressure), e4 (Fig 4 pilot), e5
// (fault-tolerance chaos matrix), a1
// (buffer placement), a2 (HOL blocking), a4 (capacity planning), a5
// (deadline-aware AQM), a6 (buffer sizing), t1 (traced pipeline's
// per-segment one-way delay), c1 (campaign fault-sweep matrix, aggregated
// by fault class; cmd/campaign runs the full sweep).
//
// With -metrics each experiment additionally prints its metric deltas
// under its table: the registry (process heap/GC gauges) is snapshotted
// around each run and the two snapshots are diffed.
//
// The end-to-end throughput of the live datapath is bench/'s to measure
// (bash bench/run.sh), not this command's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: e1,e2,e3,e4,e5,a1,a2,a4,a5,a6,t1,c1 or all")
	seed := flag.Int64("seed", 1, "experiment seed")
	messages := flag.Int("messages", 1000, "messages per run")
	withMetrics := flag.Bool("metrics", false, "report per-experiment metric deltas (heap, GC)")
	flag.Parse()

	var reg *metrics.Registry
	if *withMetrics {
		reg = metrics.NewRegistry()
		metrics.RegisterProcessMetrics(reg)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := want["all"]
	ran := 0

	out := os.Stdout
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
		run(out)
		if reg != nil {
			if deltas := metrics.Diff(before, reg.Snapshot()); len(deltas) > 0 {
				fmt.Fprintln(out, "-- metric deltas --")
				for _, d := range deltas {
					fmt.Fprintf(out, "%-24s %+d\n", d.Name, d.Value)
				}
			}
		}
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
	section("t1", "Traced pipeline: per-segment one-way delay", func(w io.Writer) {
		fmt.Fprint(w, experiments.TraceOWD(*messages, *seed).Table())
	})

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q (want e1,e2,e3,e4,e5,a1,a2,a4,a5,a6,t1,c1 or all)\n", *exp)
		os.Exit(2)
	}
}
