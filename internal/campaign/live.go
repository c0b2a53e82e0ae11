package campaign

import (
	"time"

	"repro/internal/conformance"
	"repro/internal/faults"
)

// liveScenario derives the scripted differential scenario a sampled cell
// replays on the live UDP substrate. Probabilistic fault plans cannot run
// there bit-identically (the live elapsed clock is wall time), so the
// replay uses the index-space scripted forms — a seed-dependent drop, a
// duplication, and a two-packet index flap — which internal/conformance
// executes identically on both substrates.
func liveScenario(cell Cell) conformance.Scenario {
	drop := 3 + uint64(cell.Seed%3)     // 3..5: a warm recoverable loss
	flapFrom := 8 + uint64(cell.Seed%2) // 8..9: a short mid-stream flap
	return conformance.Scenario{
		Flows:       []conformance.FlowSpec{{Experiment: 777, Messages: 14}},
		Interval:    time.Millisecond,
		DropEgress:  []uint64{drop},
		DupEgress:   []uint64{flapFrom + 4},
		FlapEgress:  []faults.IndexWindow{{From: flapFrom, To: flapFrom + 1}},
		NAKDelay:    1500 * time.Microsecond,
		NAKRetry:    4 * time.Millisecond,
		NAKRetryMax: 12 * time.Millisecond,
		MaxNAKs:     3,
		Seed:        cell.Seed,
		FaultSeed:   cell.Seed,
		TraceSample: 1,
	}
}

// liveMultiFlowScenario derives the fanin topology's replay: two flows
// interleaved through one two-shard relay, with a seed-dependent scripted
// loss landing on exactly one of them (odd merged egress indices belong
// to the first flow, even to the second).
func liveMultiFlowScenario(cell Cell) conformance.Scenario {
	drop := 5 + 2*uint64(cell.Seed%3) // 5/7/9: always the first flow's packet
	return conformance.Scenario{
		Flows:       []conformance.FlowSpec{{Experiment: 777, Messages: 10}, {Experiment: 888, Messages: 10}},
		Interval:    time.Millisecond,
		DropEgress:  []uint64{drop},
		Shards:      2,
		NAKDelay:    1500 * time.Microsecond,
		NAKRetry:    4 * time.Millisecond,
		NAKRetryMax: 12 * time.Millisecond,
		MaxNAKs:     3,
		Seed:        cell.Seed,
		FaultSeed:   cell.Seed,
	}
}

// runLiveReplay executes the cell's derived scenario on both substrates
// and records the transcript diff plus every transcript-oracle finding
// (conformance.Check) on either side. The outcome is deterministic — both
// transcripts are pure functions of the scenario — so sampled cells keep
// the matrix byte-identical across runs. Fanin cells replay the
// multi-flow scenario; every other topology replays the single-flow one.
func runLiveReplay(cell Cell) LiveResult {
	sc := liveScenario(cell)
	if cell.Topology == "fanin" {
		sc = liveMultiFlowScenario(cell)
	}
	simTr := conformance.RunSim(sc)
	liveTr, err := conformance.RunLive(sc)
	if err != nil {
		return LiveResult{Err: err.Error()}
	}
	diffs := conformance.Diff(simTr, liveTr)
	for _, f := range conformance.Check(sc, simTr) {
		diffs = append(diffs, "sim: "+f)
	}
	for _, f := range conformance.Check(sc, liveTr) {
		diffs = append(diffs, "live: "+f)
	}
	return LiveResult{Ok: len(diffs) == 0, Diffs: diffs}
}
