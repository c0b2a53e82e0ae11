package main

import (
	"io"
	"slices"
	"testing"
	"time"
)

// The rounds behind the published medians are chosen by how much the
// machine disturbed them and by nothing else.
func TestKeepCalmest(t *testing.T) {
	wall := 10 * time.Second // on n CPUs: stealLimit allows 10·n jiffies
	round := func(id float64, steal uint64, lateP90 time.Duration) *roundResult {
		return &roundResult{m: map[string]float64{"id": id}, steal: steal, wall: wall, lateP90: float64(lateP90)}
	}
	ran := []*roundResult{
		round(0, 5000, 0),        // stolen from: disturbed
		round(1, 2, 0),           // calm
		round(2, 0, 2*lateLimit), // generator late: disturbed, though nothing was stolen
		round(3, 0, 0),           // calm, and calmer than 1
		round(4, 2, lateLimit),   // calm (the limits are inclusive), ties with 1 on steal
		round(5, 4000, 0),        // disturbed, less than 0
	}
	ids := func(rs []*roundResult) (out []float64) {
		for _, r := range rs {
			out = append(out, r.m["id"])
		}
		return out
	}
	for _, tc := range []struct {
		want      int
		kept      []float64
		discarded int
	}{
		{3, []float64{3, 1, 4}, 3},
		{5, []float64{3, 1, 4, 2, 5}, 1}, // budget ran out: the least disturbed fill up
		{6, []float64{3, 1, 4, 2, 5, 0}, 0},
		{8, []float64{3, 1, 4, 2, 5, 0}, 0},
	} {
		kept, discarded := keepCalmest(ran, tc.want)
		if got := ids(kept); !slices.Equal(got, tc.kept) || discarded != tc.discarded {
			t.Errorf("want %d: kept %v, discarded %d; expected %v, %d", tc.want, got, discarded, tc.kept, tc.discarded)
		}
	}
	if got := ids(ran); !slices.Equal(got, []float64{0, 1, 2, 3, 4, 5}) {
		t.Errorf("keepCalmest reordered its input: %v", got)
	}
}

// measure end to end, at a tenth of a second per round: the rounds it
// keeps, how it splits traced from untraced ones, and the names on the
// driver's line. Nothing here depends on how fast the machine is.
func TestMeasureSmoke(t *testing.T) {
	two := workloads[:2]
	rep, err := measure(two, 3, 0.5, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2*rounds*warmupMsgs {
		t.Errorf("correct %v, failed %d of %d", rep.Correct, rep.Failed, rep.Attempted)
	}
	if len(rep.Metrics) != len(two)*len(endToEnd) {
		t.Errorf("driver line has %d metrics, want %d", len(rep.Metrics), len(two)*len(endToEnd))
	}
	for _, wr := range rep.Workloads {
		if wr.Rounds != rounds {
			t.Errorf("%s: kept %d rounds, want %d", wr.Name, wr.Rounds, rounds)
		}
		for _, d := range endToEnd {
			if n := len(wr.PerRound[d.name]); n != rounds {
				t.Errorf("%s: %s has %d per-round values", wr.Name, d.name, n)
			}
			if wr.Metrics[d.name] != median(wr.PerRound[d.name]) {
				t.Errorf("%s: %s is not the median of its rounds", wr.Name, d.name)
			}
			if got, ok := rep.Metrics[wr.Name+":"+d.name]; !ok || got.Value != wr.Metrics[d.name] || got.Unit != d.unit || got.Value <= 0 {
				t.Errorf("%s: driver line %s = %+v (present %v), report has %v", wr.Name, d.name, got, ok, wr.Metrics[d.name])
			}
		}
	}

	// One workload, traced: plain metric names, every per-layer metric, the
	// two traced rounds kept apart from the two reference rounds, and the
	// journal round kept out of both.
	rep, err = measure(workloads[3:], 3, 0.5, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	wr := rep.Workloads[0]
	if !rep.Correct || wr.Rounds != 2 || len(wr.PerRound["goodput_msgs_s"]) != 2 {
		t.Errorf("traced: correct %v, %d traced rounds, %d goodput values", rep.Correct, wr.Rounds, len(wr.PerRound["goodput_msgs_s"]))
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("traced driver line has %d metrics, want %d", len(rep.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := rep.Metrics[d.name]; !ok {
			t.Errorf("traced driver line lacks %s", d.name)
		}
		if _, ok := wr.Metrics[d.name]; !ok {
			t.Errorf("traced report never set %s", d.name)
		}
	}
	for _, name := range []string{"bench.trace_overhead_frac", "journal.append_ns_per_msg", "journal.records_per_msg", "journal.goodput_frac"} {
		if wr.Metrics[name] <= 0 {
			t.Errorf("traced: %s = %v", name, wr.Metrics[name])
		}
	}
	if rep.Attempted < 5*warmupMsgs {
		t.Errorf("traced: attempted %d: the journal round's messages are not counted", rep.Attempted)
	}
}
