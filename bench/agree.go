package main

import (
	"fmt"
	"io"
	"math"
)

// agreeRuns is how many invocations each of the two sets gets.
const agreeRuns = 5

// agree is the built-in repeatability check: it measures the same code
// 2·agreeRuns times, alternating between two sets (A B A B …) so both see
// the same drift of the machine, each time with another seed, and judges
// the two sets against the bounds the way a regression check would judge
// two commits: neither median may be worse than the other's by more than
// the metric's bound. Each set's own spread (interquartile range ÷ median)
// is printed beside it, not judged: five values make a poor estimate of
// quartiles. It writes a Markdown report and returns the exit code.
func agree(ws []workload, seed int64, seconds float64, out io.Writer) int {
	// vals[set][workload][metric] → one value per invocation
	var vals [2]map[string]map[string][]float64
	for s := range vals {
		vals[s] = map[string]map[string][]float64{}
		for _, w := range ws {
			vals[s][w.name] = map[string][]float64{}
		}
	}
	var env fingerprint
	var attempted, failed uint64
	for n := 0; n < 2*agreeRuns; n++ {
		rep, err := measure(ws, seed+int64(n), seconds, false, io.Discard)
		if err != nil {
			fmt.Fprintln(out, "bench:", err)
			return 1
		}
		env = rep.Env
		attempted += rep.Attempted
		failed += rep.Failed
		for _, wr := range rep.Workloads {
			for _, d := range endToEnd {
				vals[n%2][wr.Name][d.name] = append(vals[n%2][wr.Name][d.name], wr.Metrics[d.name])
			}
		}
	}

	fmt.Fprintf(out, "# Agreement of two sets of runs of the same code\n\n")
	fmt.Fprintf(out, "`-agree`: %d invocations, alternating A B A B …, seeds %d–%d, %.0f s measured per workload per invocation.\n\n",
		2*agreeRuns, seed, seed+2*agreeRuns-1, seconds)
	fmt.Fprintf(out, "```\n%v\n```\n\n", env)
	fmt.Fprintf(out, "ops attempted %d, failed %d\n", attempted, failed)

	pass := failed == 0
	for _, w := range ws {
		fmt.Fprintf(out, "\n## %s\n\n", w.name)
		fmt.Fprintln(out, "| metric | unit | A median (Q1–Q3) | B median (Q1–Q3) | spread A | spread B | medians apart | bound | |")
		fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|")
		for _, d := range endToEnd {
			a, b := vals[0][w.name][d.name], vals[1][w.name][d.name]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			apart := math.Abs(a2-b2) / math.Min(a2, b2)
			spreadA, spreadB := spreadFrac(a), spreadFrac(b)
			verdict := "PASS"
			if apart > d.bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(out, "| `%s` | %s | %.4g (%.4g–%.4g) | %.4g (%.4g–%.4g) | %.1f %% | %.1f %% | %.1f %% | %.0f %% | %s |\n",
				d.name, d.unit, a2, a1, a3, b2, b1, b3, 100*spreadA, 100*spreadB, 100*apart, 100*d.bound, verdict)
		}
	}
	if pass {
		fmt.Fprintf(out, "\n**PASS** — the two sets agree within the bounds on every end-to-end metric of every workload.\n")
		return 0
	}
	fmt.Fprintf(out, "\n**FAIL** — see the rows marked FAIL.\n")
	return 1
}
