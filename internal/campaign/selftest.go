package campaign

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dmtp"
	"repro/internal/journal"
)

// SelfTest proves the oracle library can actually fail: it runs healthy
// cells (expecting a clean bill) and then re-runs them against
// deliberately broken machinery — the gap-detection floor biased by one
// via dmtp.GapFloorBias (a silently untracked single-packet gap the
// delivery ledger must report), and a journal replay that drops every
// third appended record via journal.ReplayDropBias (a broken recovery
// the replay-balance and durable-zero-loss oracles must report), and
// eviction runs recorded one entry long via dmtp.EvictRunBias (a flight
// recorder that disagrees with the stash counters, which the flight
// oracle must report). A
// harness whose oracles cannot fire is not evidence (the same argument
// the conformance suite's self-test makes).
//
// The biases are process-global, so SelfTest runs its cells sequentially
// and must not run concurrently with another campaign.
func SelfTest() error {
	spec := Spec{Seed: 1, Workers: 1}

	healthy := []Cell{
		{Seed: 1, Topology: "single", Fault: "clean", Workload: "steady"},
		{Seed: 1, Topology: "single", Fault: "crash", Workload: "steady"},
	}
	for _, c := range healthy {
		r := runCell(c, spec)
		if r.Outcome != "ok" {
			return fmt.Errorf("campaign selftest: healthy cell %s reported %v", c.ID(), r.Violations)
		}
	}
	// The crash cell must have exercised the write-off path, or the
	// biased rerun below would not prove anything.
	crashRes := runCell(healthy[1], spec)
	if crashRes.Lost == 0 || crashRes.Recovered == 0 {
		return fmt.Errorf("campaign selftest: crash cell exercised neither loss path: %+v", crashRes)
	}

	dmtp.GapFloorBias = 1
	broken := runCell(healthy[1], spec)
	dmtp.GapFloorBias = 0
	if broken.Outcome == "ok" {
		return fmt.Errorf("campaign selftest: oracles passed a biased gap floor — the harness cannot detect broken engines")
	}

	// The journal oracle must be able to fire too: a healthy durable
	// crash cell first (replay happens and loses nothing), then the same
	// cell with the replay deliberately dropping every third appended
	// record — the replay balance breaks AND the replayed stash misses
	// entries, so zero-loss fails. Either finding proves the oracle bites.
	durable := Cell{Seed: 1, Topology: "durable", Fault: "crash", Workload: "steady"}
	dr := runCell(durable, spec)
	if dr.Outcome != "ok" {
		return fmt.Errorf("campaign selftest: healthy durable crash cell reported %v", dr.Violations)
	}
	if dr.Replayed == 0 {
		return fmt.Errorf("campaign selftest: durable crash cell never exercised journal replay: %+v", dr)
	}
	journal.ReplayDropBias = 3
	brokenReplay := runCell(durable, spec)
	journal.ReplayDropBias = 0
	if brokenReplay.Outcome == "ok" {
		return fmt.Errorf("campaign selftest: oracles passed a record-dropping journal replay — the harness cannot detect broken recovery")
	}

	// The flight oracle must fire too: a healthy cell whose stashes evict,
	// then the same cell recording every eviction run one entry long.
	evicting := Cell{Seed: 1, Topology: "chain", Fault: "clean", Workload: "storm"}
	er := runCell(evicting, spec)
	if er.Outcome != "ok" {
		return fmt.Errorf("campaign selftest: healthy evicting cell reported %v", er.Violations)
	}
	if er.Evicted == 0 {
		return fmt.Errorf("campaign selftest: evicting cell never evicted: %+v", er)
	}
	dmtp.EvictRunBias = 1
	brokenRuns := runCell(evicting, spec)
	dmtp.EvictRunBias = 0
	if !slices.ContainsFunc(brokenRuns.Violations, func(v string) bool { return strings.HasPrefix(v, "oracle/flight:") }) {
		return fmt.Errorf("campaign selftest: the flight oracle passed miscounted eviction runs: %v", brokenRuns.Violations)
	}
	return nil
}
