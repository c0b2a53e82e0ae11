// Command bench is the repository's end-to-end benchmark: it drives the
// real loopback trio (live.Sender → live.Relay → live.Receiver) from one
// generator goroutine over one sender socket, proves every delivery, and
// prints what a DAQ operator would get — zero-loss goodput, CPU per
// message, paced latency, set-up time — plus, with -trace 1, the per-layer
// packet budget that says why an end-to-end number moved. README.md in this
// directory explains every workload and metric.
//
// It measures from outside only: it times calls into the layers' public
// functions and reads their public counters.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"
)

// rounds is how many fresh-trio rounds make one workload's run. Every
// reported value is the median over them, so one slow spell of the machine
// moves one round, not the result.
const rounds = 5

// defaultSeconds is the measured time per workload: BENCHMARK.json's
// run_seconds. It is what fits four workloads, their set-up and the rounds
// a disturbed machine makes it replace into the driver's time limit.
const defaultSeconds = 20

// closedShare is the closed-loop phase's share of a round's measured time:
// the gated metrics come from it. The paced phase gets the rest, which is
// enough for its percentiles (38 000 samples a round at the default).
const closedShare = 0.7

// budgetShare bounds an untraced run's wall time, as a multiple of its
// measured time: what is left after the rounds' own set-up and teardown is
// spent on replacing disturbed rounds, so a bad spell of the machine costs
// a bounded amount of time.
const budgetShare = 1.5

// metricDef names one published metric. bound is, for a gated metric, the
// share of its median by which it may worsen before a change counts as a
// regression; BENCHMARK.json carries the same figures.
type metricDef struct {
	name, unit string
	better     string
	bound      float64
}

const higher, lower = "higher", "lower"

// endToEnd are the gated metrics, in print order; each is published at the
// reference machine speed (probe.go). Paced latency is not among them: on
// the machines this runs on its run-to-run spread exceeds the largest bound
// a gate may have (README, "How the bounds were derived"), so it is a
// bench. diagnostic like the tails.
var endToEnd = []metricDef{
	{"goodput_msgs_s", "msgs/s", higher, 0.25},
	{"cpu_us_per_msg", "us", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the ungated per-layer metrics, <module>.<metric>, in print
// order. -trace 1 reports all of them; an untraced run prints the ones that
// are free to collect, as diagnostics.
var perLayer = []metricDef{
	{"wire.encode_ns_per_msg", "ns", lower, 0},
	{"wire.check_ns_per_msg", "ns", lower, 0},
	{"wire.reshape_ns_per_msg", "ns", lower, 0},
	{"wire.ctrl_codec_ns_per_pkt", "ns", lower, 0},
	{"wire.pool_miss_ratio", "ratio", lower, 0},

	{"dmtp.stamp_ns_per_msg", "ns", lower, 0},
	{"dmtp.stash_ns_per_msg", "ns", lower, 0},
	{"dmtp.stash_evict_ns_per_msg", "ns", lower, 0},
	{"dmtp.trim_ns_per_msg", "ns", lower, 0},
	{"dmtp.serve_nak_ns_per_retx", "ns", lower, 0},
	{"dmtp.evictions_per_kmsg", "1/kmsg", lower, 0},
	{"dmtp.retransmits_per_kmsg", "1/kmsg", lower, 0},

	{"dmtp.rx_ingest_ns_per_msg", "ns", lower, 0},
	{"dmtp.rx_ingest_gaps_ns_per_msg", "ns", lower, 0},
	{"dmtp.rx_nak_fire_ns_per_nak", "ns", lower, 0},
	{"dmtp.naks_per_kmsg", "1/kmsg", lower, 0},
	{"dmtp.nak_useful_ratio", "ratio", higher, 0},
	{"dmtp.duplicates_per_kmsg", "1/kmsg", lower, 0},
	{"dmtp.outstanding_gaps_mean", "count", lower, 0},
	{"dmtp.recovery_lat_p50_us", "us", lower, 0},

	{"journal.append_ns_per_msg", "ns", lower, 0},
	{"journal.flush_ns_per_msg", "ns", lower, 0},
	{"journal.records_per_msg", "1/msg", lower, 0},
	{"journal.bytes_per_msg", "B/msg", lower, 0},
	{"journal.fsyncs_per_kmsg", "1/kmsg", lower, 0},
	{"journal.pending_mean", "count", lower, 0},
	{"journal.goodput_frac", "ratio", higher, 0},

	{"metrics.record_ns_per_event", "ns", lower, 0},
	{"metrics.events_per_msg", "1/msg", lower, 0},
	{"telemetry.counter_inc_ns", "ns", lower, 0},
	{"telemetry.hist_observe_ns", "ns", lower, 0},

	{"live.sender.send_ns_per_msg", "ns", lower, 0},
	{"live.sender.pkts_per_syscall", "pkts", higher, 0},
	{"live.relay.pkts_per_syscall", "pkts", higher, 0},
	{"live.receiver.pkts_per_syscall", "pkts", higher, 0},
	{"live.relay.gso_frac", "ratio", higher, 0},
	{"live.batch_fallbacks", "count", lower, 0},
	{"live.hop_tx_relay_p50_us", "us", lower, 0},
	{"live.hop_relay_rx_p50_us", "us", lower, 0},
	{"live.relay_rx_dropped", "count", lower, 0},
	{"live.tx_errors", "count", lower, 0},
	{"live.sys_cpu_frac", "ratio", lower, 0},
	{"live.kernel_remainder_us_per_msg", "us", lower, 0},
	{"live.allocs_per_msg", "1/msg", lower, 0},
	{"live.gc_cycles_per_mmsg", "1/Mmsg", lower, 0},
	{"live.heap_live_mib", "MiB", lower, 0},

	{"bench.steal_frac", "ratio", lower, 0},
	{"bench.gen_late_p99_us", "us", lower, 0},
	{"bench.paced_lat_p50_us", "us", lower, 0},
	{"bench.paced_lat_p90_us", "us", lower, 0},
	{"bench.paced_lat_p99_us", "us", lower, 0},
	{"bench.paced_samples", "count", higher, 0},
	{"bench.rounds_spread_frac", "ratio", lower, 0},
	{"bench.machine_slowdown", "ratio", lower, 0},
	{"bench.trace_overhead_frac", "ratio", higher, 0},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is one workload's outcome over its rounds.
type workloadReport struct {
	Name      string   `json:"name"`
	Rounds    int      `json:"rounds"`    // rounds kept
	Discarded int      `json:"discarded"` // disturbed rounds that were replaced
	Attempted uint64   `json:"ops_attempted"`
	Failed    uint64   `json:"ops_failed"`
	Broken    []string `json:"broken,omitempty"`
	// Metrics are medians over the kept rounds; PerRound holds the values
	// behind them.
	Metrics  map[string]float64   `json:"metrics"`
	PerRound map[string][]float64 `json:"per_round"`
}

// driverLine is what a driver reads: the last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is one invocation's outcome.
type report struct {
	Env       fingerprint       `json:"env"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads []*workloadReport `json:"workloads"`
	driverLine
}

func (wr *workloadReport) add(res *roundResult) {
	wr.Rounds++
	for k, v := range res.m {
		wr.PerRound[k] = append(wr.PerRound[k], v)
	}
}

// measure runs every workload in ws for seconds of measured time each and
// aggregates. Rounds are interleaved (W1 W2 …, W1 W2 …) so a slow spell
// touches every workload a little instead of one workload entirely.
//
// An untraced run keeps `rounds` rounds per workload. A round the machine
// disturbed — the hypervisor stole CPU, or the generator could not keep its
// schedule — says nothing about the program, so while the time budget
// lasts, further rounds are run until enough calm ones exist; the calmest
// are kept. The choice never looks at what the round measured.
func measure(ws []workload, seed int64, seconds float64, traced bool, log io.Writer) (*report, error) {
	started := time.Now()
	scratch, err := outDir()
	if err != nil {
		return nil, err
	}
	steal0 := stealJiffies()
	rep := &report{Env: newFingerprint(seed), Seconds: seconds, Traced: traced,
		driverLine: driverLine{Correct: true, Metrics: map[string]metricValue{}}}

	per := time.Duration(seconds / rounds * float64(time.Second))
	plan := roundPlan{
		warmup:  warmupMsgs,
		closed:  time.Duration(closedShare * float64(per)),
		paced:   per - time.Duration(closedShare*float64(per)),
		scratch: scratch,
	}
	// A traced invocation spends four of its five round-lengths on live
	// rounds — untraced and traced alternating, so the pair shares a spell
	// of the machine — and the rest on the socket-free replay. Nothing it
	// reports is gated, so it runs no extra rounds.
	want := rounds
	if traced {
		want = 4
	}
	deadline := started.Add(time.Duration(budgetShare * seconds * float64(len(ws)) * float64(time.Second)))

	ran := make([][]*roundResult, len(ws))
	calm := make([]int, len(ws))
	var longest time.Duration // the slowest round so far, teardown included
	for pass := 0; ; pass++ {
		progressed := false
		for i, w := range ws {
			if calm[i] >= want || pass >= want && (traced || time.Now().Add(longest).After(deadline)) {
				continue
			}
			plan.seed = seed<<8 | int64(pass)
			plan.traced = traced && pass%2 == 1
			began := time.Now()
			res, err := runRound(w, plan)
			if err != nil {
				return nil, err
			}
			longest = max(longest, time.Since(began))
			progressed = true
			ran[i] = append(ran[i], res)
			if res.calm() || traced {
				calm[i]++
			}
			fmt.Fprintf(log, "%s round %d: %.0f msgs/s, %.2f us cpu/msg, p50 %.0f us, set-up %.3f s; machine slow-down %.3f, steal %d jiffies, generator late p90 %.0f us\n",
				w.name, pass+1, res.m["goodput_msgs_s"], res.m["cpu_us_per_msg"],
				res.m["bench.paced_lat_p50_us"], res.m["setup_s"], res.m["bench.machine_slowdown"], res.steal, res.lateP90/1e3)
		}
		if !progressed {
			break
		}
	}

	for i, w := range ws {
		wr := &workloadReport{Name: w.name, Metrics: map[string]float64{}, PerRound: map[string][]float64{}}
		rep.Workloads = append(rep.Workloads, wr)
		ref := wr                                                     // the rounds the end-to-end numbers come from
		untraced := &workloadReport{PerRound: map[string][]float64{}} // traced runs: the reference rounds
		var journaled *roundResult
		if traced && w.journal {
			// The journal round: one more traced round, with the write-ahead
			// journal on. Its journal.* counters and its goodput beside the
			// other traced rounds' are all that is taken from it.
			plan.seed, plan.traced, plan.journal = seed<<8|int64(want), true, true
			if journaled, err = runRound(w, plan); err != nil {
				return nil, err
			}
			plan.journal = false
			fmt.Fprintf(log, "%s journal round: %.0f msgs/s, %.2f us cpu/msg, %.0f records pending\n",
				w.name, journaled.m["goodput_msgs_s"], journaled.m["cpu_us_per_msg"], journaled.m["journal.pending_mean"])
			ran[i] = append(ran[i], journaled)
		}
		for _, res := range ran[i] {
			wr.Attempted += res.attempted
			wr.Failed += res.failed
			wr.Broken = append(wr.Broken, res.broken...)
			rep.Env.BatchCaps = res.caps
			if res.fs != "" {
				rep.Env.JournalFS = res.fs
			}
		}
		if !traced {
			ran[i], wr.Discarded = keepCalmest(ran[i], want)
		}
		for _, res := range ran[i] {
			switch {
			case res.journal:
			case traced && !res.traced:
				untraced.add(res)
			default:
				wr.add(res)
			}
		}
		for k, v := range wr.PerRound {
			wr.Metrics[k] = median(v)
		}
		if journaled != nil {
			for k, v := range journaled.m {
				if strings.HasPrefix(k, "journal.") {
					wr.Metrics[k] = v
				}
			}
			wr.Metrics["journal.goodput_frac"] = ratio(journaled.m["goodput_msgs_s"], wr.Metrics["goodput_msgs_s"])
		}
		if traced {
			ref = untraced
			wr.Metrics["bench.trace_overhead_frac"] = ratio(wr.Metrics["goodput_msgs_s"], median(ref.PerRound["goodput_msgs_s"]))
			rp, err := replay(w, seed, scratch, replayPackets)
			if err != nil {
				return nil, err
			}
			for k, v := range rp.metrics {
				wr.Metrics[k] = v
			}
			// What the replayed layers do not account for is the kernel's
			// and the adapter's: syscalls, skb copies, wake-ups, the flow
			// table. Reported, not explained away.
			wr.Metrics["live.kernel_remainder_us_per_msg"] = median(ref.PerRound["cpu_us_per_msg"]) - rp.pathNsPerMsg/1e3
		}
		wr.Metrics["bench.rounds_spread_frac"] = spreadFrac(ref.PerRound["goodput_msgs_s"])
	}

	rep.Env.StealJiffies = stealJiffies() - steal0
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, wr := range rep.Workloads {
		rep.Attempted += wr.Attempted
		rep.Failed += wr.Failed
		if len(wr.Broken) > 0 {
			rep.Correct = false
		}
		for _, d := range defs {
			name := d.name
			if len(ws) > 1 {
				name = wr.Name + ":" + d.name
			}
			rep.Metrics[name] = metricValue{wr.Metrics[d.name], d.unit}
		}
	}
	return rep, nil
}

// keepCalmest returns the want rounds of ran that the machine disturbed
// least — calm ones first, then by stolen time, ties in the order they ran
// — and how many it left out. It never looks at what a round measured.
func keepCalmest(ran []*roundResult, want int) (kept []*roundResult, discarded int) {
	kept = slices.Clone(ran)
	slices.SortStableFunc(kept, func(a, b *roundResult) int {
		if a.calm() != b.calm() {
			if a.calm() {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.steal, b.steal)
	})
	if len(kept) > want {
		kept, discarded = kept[:want], len(kept)-want
	}
	return kept, discarded
}

// print renders the report for a person.
func (rep *report) print(w io.Writer) {
	fmt.Fprintln(w, rep.Env)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s — %d rounds kept, %d disturbed rounds replaced", wr.Name, wr.Rounds, wr.Discarded)
		if rep.Traced {
			fmt.Fprintf(w, " (traced rounds; per-layer metrics)\n")
		} else {
			fmt.Fprintf(w, " (median of rounds)\n")
			for _, d := range endToEnd {
				v := wr.PerRound[d.name]
				lo, _, hi := quartiles(v)
				fmt.Fprintf(w, "  %-34s %14.4f %-7s quartiles %.4f–%.4f over %d rounds\n",
					d.name, wr.Metrics[d.name], d.unit, lo, hi, len(v))
			}
			fmt.Fprintf(w, "  %-34s %14d %-7s\n", "ops_attempted", wr.Attempted, "count")
			fmt.Fprintf(w, "  %-34s %14d %-7s\n", "ops_failed", wr.Failed, "count")
			fmt.Fprintf(w, "  %-34s %14.0f %-7s per round\n", "paced latency samples", wr.Metrics["bench.paced_samples"], "count")
			fmt.Fprintln(w, "  diagnostics, not gated:")
		}
		for _, d := range perLayer {
			if v, ok := wr.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, v, d.unit)
			}
		}
		for _, b := range wr.Broken {
			fmt.Fprintf(w, "  BROKEN: %s\n", b)
		}
	}
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workloadFlag := flag.String("workload", "", "workload to run: "+strings.Join(names, ", ")+"; empty runs all four, rounds interleaved")
	seed := flag.Int64("seed", 1, "seed for payload bytes, NAK jitter and slice order")
	seconds := flag.Float64("seconds", defaultSeconds, "measured time per workload, split over the rounds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from traced rounds and the socket-free replay, 0 the end-to-end metrics")
	agreeFlag := flag.Bool("agree", false, "repeatability check: run two alternating sets and judge them against the bounds")
	asJSON := flag.Bool("json", false, "print the whole report as one JSON line instead of tables")
	flag.Parse()

	ws := workloads
	if *workloadFlag != "" {
		w, ok := findWorkload(*workloadFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadFlag, strings.Join(names, ", "))
			os.Exit(2)
		}
		ws = []workload{w}
	}
	if *seconds <= 0 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *agreeFlag {
		os.Exit(agree(ws, *seed, *seconds, os.Stdout))
	}

	rep, err := measure(ws, *seed, *seconds, *trace == 1, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var line []byte
	if *asJSON {
		line, err = json.Marshal(rep)
	} else {
		rep.print(os.Stdout)
		fmt.Println()
		line, err = json.Marshal(rep.driverLine)
	}
	if err != nil { // a NaN or Inf: some phase measured nothing
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
