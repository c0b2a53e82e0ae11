// Command campaign runs the deterministic scenario-sweep harness: the
// cross product of seeds × topologies × fault plans × workloads, every
// cell executed on the simulator substrate and checked against the
// invariant oracles, with an optional sampled live-substrate replay.
//
// The output matrix (benchtab/v1 JSON) is byte-identical for identical
// flags, so CI runs it twice and compares; a failing cell reproduces with
//
//	campaign -repro s3-chain-flap-burst
//
// Exit status: 0 when every cell is "ok", 1 when any oracle fired or the
// self-test failed, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "first campaign seed")
		seeds     = flag.Int("seeds", 1, "number of consecutive seeds to sweep")
		messages  = flag.Int("messages", 40, "steady workload messages per cell")
		workers   = flag.Int("workers", 0, "parallel cell workers (0 = GOMAXPROCS)")
		liveEvery = flag.Int("live-every", 0, "replay every Nth cell on the live UDP substrate (0 = off)")
		out       = flag.String("out", "-", "matrix JSON destination ('-' = stdout)")
		repro     = flag.String("repro", "", "re-run one cell by ID (e.g. s3-chain-flap-burst) and print its result")
		selftest  = flag.Bool("selftest", false, "verify the oracles catch a deliberately broken engine, then exit")
	)
	flag.Parse()

	if *selftest {
		if err := campaign.SelfTest(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("campaign selftest: oracles detect a biased gap-detection floor, a record-dropping journal replay and miscounted eviction runs; healthy cells pass")
		return
	}

	spec := campaign.Spec{
		Seed:      *seed,
		Seeds:     *seeds,
		Messages:  *messages,
		Workers:   *workers,
		LiveEvery: *liveEvery,
	}

	if *repro != "" {
		cell, err := campaign.ParseCellID(*repro)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		spec.Seed, spec.Seeds = cell.Seed, 1
		spec.Topologies = []string{cell.Topology}
		spec.Faults = []string{cell.Fault}
		spec.Workloads = []string{cell.Workload}
		m := campaign.Run(spec)
		r := m.Results[0]
		fmt.Printf("cell %s: %s\n", r.ID, r.Outcome)
		fmt.Printf("  sent=%d upgraded=%d delivered=%d dup=%d recovered=%d lost=%d rejected=%d tail=%d\n",
			r.Sent, r.Upgraded, r.Delivered, r.Duplicates, r.Recovered, r.Lost, r.Rejected, r.TailLoss)
		fmt.Printf("  naks=%d rtx=%d misses=%d evicted=%d trimmed=%d crashes=%d goodput=%.1f Mbps\n",
			r.NAKsSent, r.Retransmits, r.Misses, r.Evicted, r.Trimmed, r.Crashes, r.GoodputMbps)
		for _, v := range r.Violations {
			fmt.Printf("  VIOLATION: %s\n", v)
		}
		if r.Outcome != "ok" {
			os.Exit(1)
		}
		return
	}

	m := campaign.Run(spec)
	data, err := m.MarshalIndent()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "campaign: %d cells, %d violations\n", m.Cells, m.Violations)
	if m.Violations > 0 {
		for _, r := range m.Results {
			if r.Outcome != "ok" {
				fmt.Fprintf(os.Stderr, "  %s: %v\n", r.ID, r.Violations)
			}
		}
		os.Exit(1)
	}
}
