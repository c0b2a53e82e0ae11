package conformance

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dmtp"
	"repro/internal/faults"
)

// acceptanceScenario is the canonical differential run: twenty messages
// at 1 ms virtual spacing, one warm-buffer loss (egress packet 3 = seq 3,
// recovered via NAK before the crash), a crash+restart at t = 16.5 ms,
// and one cold-buffer loss (egress packet 16 = seq 15, dropped at
// t = 15 ms, stash colded before its first NAK at t = 17.5 ms, so the
// retry cap must write it off as permanent loss).
func acceptanceScenario() Scenario {
	return Scenario{
		Flows:       []FlowSpec{{Experiment: 777, Messages: 20}},
		Interval:    time.Millisecond,
		DropEgress:  []uint64{3, 16},
		CrashAt:     16*time.Millisecond + 500*time.Microsecond,
		NAKDelay:    1500 * time.Microsecond,
		NAKRetry:    4 * time.Millisecond,
		NAKRetryMax: 12 * time.Millisecond,
		MaxNAKs:     3,
		Seed:        7,
		FaultSeed:   7,
	}
}

var update = flag.Bool("update", false, "rewrite testdata/<Test>.json from the simulator transcripts")

// runBoth runs sc on both substrates and fails the test on any divergence
// between the transcripts, any transcript-oracle finding on either, or a
// simulator transcript that differs from the test's golden.
func runBoth(t *testing.T, sc Scenario) (simTr, liveTr *Transcript) {
	t.Helper()
	simTr = RunSim(sc)
	checkGolden(t, simTr)
	liveTr, err := RunLive(sc)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	for _, d := range Diff(simTr, liveTr) {
		t.Errorf("divergence: %s", d)
	}
	for _, f := range Check(sc, simTr) {
		t.Errorf("sim oracle: %s", f)
	}
	for _, f := range Check(sc, liveTr) {
		t.Errorf("live oracle: %s", f)
	}
	return simTr, liveTr
}

// checkGolden compares tr, as indented JSON, with testdata/<Test>.json;
// with -update it rewrites the file instead. A change that moves a golden
// says why in CHANGES.md.
func checkGolden(t *testing.T, tr *Transcript) {
	t.Helper()
	got, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", t.Name()+".json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run '^%s$' -update writes it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("simulator transcript differs from %s:\n%s", path, got)
	}
}

// recoveredIn counts a flow's recovered deliveries.
func recoveredIn(f FlowTranscript) int {
	n := 0
	for _, d := range f.Delivered {
		if d.Recovered {
			n++
		}
	}
	return n
}

// TestDifferentialSimVsLiveBatched re-runs the acceptance scenario with
// the live sender's batch ring (and, on supporting kernels, the
// sendmmsg/GSO kernel datapath) engaged. The simulator side is
// identical, so any divergence — delivery order, NAK ranges, write-offs,
// totals, spans — would mean batching altered the bytes or ordering on
// the wire. It must not: batching only changes how packets are packed
// into syscalls.
func TestDifferentialSimVsLiveBatched(t *testing.T) {
	sc := acceptanceScenario()
	sc.BatchSize = 8
	simTr, _ := runBoth(t, sc)
	if simTr.Totals.Recovered != 1 || simTr.Totals.Lost != 1 {
		t.Fatalf("scenario did not exercise both loss paths: %+v", simTr.Totals)
	}
}

// TestDifferentialSimVsLive is the conformance suite's core assertion:
// the same seeded scenario — traffic schedule, scripted egress losses,
// and a mid-stream crash/restart — produces identical delivery order,
// NAK ranges, write-off decisions and recovery counts on the simulator
// and live-UDP substrates, because both are thin adapters over the same
// dmtp engines.
func TestDifferentialSimVsLive(t *testing.T) {
	sc := acceptanceScenario()
	simTr, _ := runBoth(t, sc)

	// Sanity-pin the scenario itself (on the sim transcript; the diff
	// above extends every property to the live one): the warm loss was
	// recovered, the cold loss was written off after exactly MaxNAKs
	// requests, and everything else was delivered exactly once.
	if simTr.Totals.Recovered != 1 || simTr.Totals.Lost != 1 {
		t.Fatalf("scenario did not exercise both loss paths: %+v", simTr.Totals)
	}
	n := sc.Flows[0].Messages
	if simTr.Totals.Delivered != uint64(n-1) || simTr.Totals.Duplicates != 0 {
		t.Fatalf("deliveries %+v, want %d distinct", simTr.Totals, n-1)
	}
	// seq 3: one NAK then recovery; seq 15: MaxNAKs requests then loss.
	if want := uint64(1 + sc.MaxNAKs); simTr.Totals.NAKsSent != want {
		t.Fatalf("NAKs sent %d, want %d: %v", simTr.Totals.NAKsSent, want, simTr.Flows[0].NAKs)
	}
	if gaps := simTr.Flows[0].Gaps; len(gaps) != 1 || gaps[0] != 15 {
		t.Fatalf("write-offs %v, want [15]", gaps)
	}
}

// TestDifferentialTraceSpans runs the acceptance scenario with in-band
// tracing on every message and asserts the reconstructed span structures —
// hop-name sequences, reshape annotations, and recovery markers — are
// identical on both substrates, and that the recovered message's trace is
// structurally distinct (it passed back through the retransmission stash).
func TestDifferentialTraceSpans(t *testing.T) {
	sc := acceptanceScenario()
	sc.TraceSample = 1
	simTr, _ := runBoth(t, sc)
	n := sc.Flows[0].Messages
	if len(simTr.Spans) != n-1 {
		t.Fatalf("span records %d, want %d (all deliveries traced): %v",
			len(simTr.Spans), n-1, simTr.Spans)
	}
	direct, recovered := 0, 0
	for _, s := range simTr.Spans {
		switch s {
		case "id=3 hops=tx>reshape:1>rtx>rx recovered":
			recovered++
		default:
			direct++
		}
	}
	if recovered != 1 {
		t.Fatalf("no retransmit-shaped span for the recovered message: %v", simTr.Spans)
	}
	if direct != n-2 {
		t.Fatalf("direct spans %d, want %d: %v", direct, n-2, simTr.Spans)
	}
}

// TestDifferentialFlapDupDuringReshape is the second seeded differential
// scenario: a three-packet index-space link flap plus scripted duplication
// on the buffer→receiver leg while the relay reshape is in flight. Egress
// index 4 duplicates a forward; index 12 lands on a retransmission (the
// NAK for the flapped 7–9 window fires between forwards 11 and 12, so the
// three retransmissions occupy egress indices 12–14), exercising the
// duplicate-of-recovery path. Both substrates must agree on delivery
// order, NAK ranges, duplicate counts, and span structures.
func TestDifferentialFlapDupDuringReshape(t *testing.T) {
	sc := Scenario{
		Flows:       []FlowSpec{{Experiment: 777, Messages: 24}},
		Interval:    time.Millisecond,
		FlapEgress:  []faults.IndexWindow{{From: 7, To: 9}},
		DupEgress:   []uint64{4, 12},
		NAKDelay:    1500 * time.Microsecond,
		NAKRetry:    4 * time.Millisecond,
		NAKRetryMax: 12 * time.Millisecond,
		MaxNAKs:     3,
		Seed:        11,
		FaultSeed:   11,
		TraceSample: 1,
	}
	simTr, _ := runBoth(t, sc)

	// Scenario sanity (sim transcript; the diff extends it to live): the
	// whole flap window was recovered, nothing was written off, and both
	// scripted duplicates — one of a forward, one of a retransmission —
	// were detected and suppressed.
	if simTr.Totals.Recovered != 3 || simTr.Totals.Lost != 0 {
		t.Fatalf("flap window not fully recovered: %+v", simTr.Totals)
	}
	if simTr.Totals.Duplicates != 2 {
		t.Fatalf("duplicates %d, want 2: %+v", simTr.Totals.Duplicates, simTr.Totals)
	}
	n := sc.Flows[0].Messages
	if simTr.Totals.Delivered != uint64(n) {
		t.Fatalf("delivered %d, want %d", simTr.Totals.Delivered, n)
	}
	if gaps := simTr.Flows[0].Gaps; len(gaps) != 0 {
		t.Fatalf("unexpected write-offs: %v", gaps)
	}
	// Every delivery is traced; exactly the three flapped messages carry
	// the retransmit-shaped span (duplicates never add span records).
	if len(simTr.Spans) != n {
		t.Fatalf("span records %d, want %d: %v", len(simTr.Spans), n, simTr.Spans)
	}
	recovered := 0
	for _, s := range simTr.Spans {
		switch s {
		case "id=7 hops=tx>reshape:1>rtx>rx recovered",
			"id=8 hops=tx>reshape:1>rtx>rx recovered",
			"id=9 hops=tx>reshape:1>rtx>rx recovered":
			recovered++
		}
	}
	if recovered != 3 {
		t.Fatalf("recovered spans %d, want 3: %v", recovered, simTr.Spans)
	}
}

// TestDifferentialTwoFlowsOneRelay is the third seeded differential
// scenario and the witness for the many-flow relay refactor: two
// experiments interleave round-robin through one sharded relay (two
// shards, one receiver), with a scripted loss seeded onto exactly one
// flow (merged egress index 5 = flow 777's third packet). Each flow's
// transcript — delivery order, NAK ranges, write-offs — must be
// byte-identical across substrates, and the clean flow's transcript must
// show zero fault artifacts: per-flow sequencing, stash partitioning and
// NAK service never bleed between flows.
func TestDifferentialTwoFlowsOneRelay(t *testing.T) {
	sc := Scenario{
		Flows:       []FlowSpec{{Experiment: 777, Messages: 12}, {Experiment: 888, Messages: 12}},
		Interval:    time.Millisecond,
		DropEgress:  []uint64{5},
		Shards:      2,
		NAKDelay:    1500 * time.Microsecond,
		NAKRetry:    4 * time.Millisecond,
		NAKRetryMax: 12 * time.Millisecond,
		MaxNAKs:     3,
		Seed:        7,
		FaultSeed:   7,
	}
	simTr, _ := runBoth(t, sc)

	// Scenario sanity on the sim transcript (the diff extends it to live).
	// The faulted flow recovered its one loss via a single NAK…
	faulted := simTr.Flows[0]
	if len(faulted.Delivered) != 12 || recoveredIn(faulted) != 1 ||
		len(faulted.NAKs) != 1 || len(faulted.Gaps) != 0 {
		t.Fatalf("faulted flow %+v, want 12 delivered / 1 recovered / 1 NAK", faulted)
	}
	// …while the clean flow saw no NAKs, no recoveries, no write-offs:
	// the seeded fault stayed on its flow. Check above already holds
	// each flow's sequence space to 1..n, each delivered once.
	clean := simTr.Flows[1]
	if len(clean.Delivered) != 12 || recoveredIn(clean) != 0 ||
		len(clean.NAKs) != 0 || len(clean.Gaps) != 0 {
		t.Fatalf("clean flow contaminated: %+v", clean)
	}
	if simTr.Totals.Delivered != 24 || simTr.Totals.Duplicates != 0 {
		t.Fatalf("totals %+v, want 24 distinct deliveries", simTr.Totals)
	}
}

// TestDifferentialThreeFlowsEveryFault combines what only one scenario
// type can express: three flows of different lengths through a two-shard
// relay, with drops, a duplicate and an index flap on the merged egress
// order, a crash+restart mid-stream, tracing on every message and the
// live senders batching. Both substrates must agree and both transcripts
// must satisfy the oracles.
func TestDifferentialThreeFlowsEveryFault(t *testing.T) {
	sc := Scenario{
		Flows: []FlowSpec{
			{Experiment: 777, Messages: 12},
			{Experiment: 888, Messages: 9},
			{Experiment: 999, Messages: 5},
		},
		Interval:    time.Millisecond,
		DropEgress:  []uint64{3, 20},
		DupEgress:   []uint64{6},
		FlapEgress:  []faults.IndexWindow{{From: 10, To: 12}},
		CrashAt:     9*time.Millisecond + 500*time.Microsecond,
		Shards:      2,
		NAKDelay:    1500 * time.Microsecond,
		NAKRetry:    4 * time.Millisecond,
		NAKRetryMax: 12 * time.Millisecond,
		MaxNAKs:     3,
		Seed:        5,
		FaultSeed:   5,
		TraceSample: 1,
		BatchSize:   8,
	}
	simTr, _ := runBoth(t, sc)

	// Sanity on the sim transcript: 26 messages, of which the crash
	// colded one loss past recovery and four came back through the stash.
	got := simTr.Totals
	if got.Delivered != 25 || got.Recovered != 4 || got.Lost != 1 || got.Duplicates != 1 {
		t.Fatalf("totals %+v, want 25 delivered / 4 recovered / 1 lost / 1 duplicate", got)
	}
	if len(simTr.Spans) != 25 {
		t.Fatalf("span records %d, want 25: %v", len(simTr.Spans), simTr.Spans)
	}
}

// TestDifferentialDetectsBrokenEngine is the suite's self-test: a
// deliberately broken engine fork — the gap-detection floor biased by one
// via dmtp.GapFloorBias, so a single-packet gap right above the floor is
// never tracked — must make the differential comparator report
// divergence, and the transcript oracles must find it from the broken
// transcript alone. A conformance suite that cannot fail is not evidence.
func TestDifferentialDetectsBrokenEngine(t *testing.T) {
	sc := Scenario{
		Flows:       []FlowSpec{{Experiment: 777, Messages: 8}},
		Interval:    time.Millisecond,
		DropEgress:  []uint64{3},
		NAKDelay:    1500 * time.Microsecond,
		NAKRetry:    4 * time.Millisecond,
		NAKRetryMax: 12 * time.Millisecond,
		MaxNAKs:     3,
		Seed:        7,
		FaultSeed:   7,
	}
	liveTr, err := RunLive(sc)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}

	// Re-run the simulator substrate with the off-by-one gap floor.
	dmtp.GapFloorBias = 1
	defer func() { dmtp.GapFloorBias = 0 }()
	brokenTr := RunSim(sc)

	diff := Diff(brokenTr, liveTr)
	if len(diff) == 0 {
		t.Fatal("comparator passed a biased gap floor; the differential test cannot detect broken engines")
	}
	// The specific failure mode: the biased engine never detects the gap,
	// so it neither NAKs nor recovers seq 3…
	if brokenTr.Totals.NAKsSent != 0 || brokenTr.Totals.Recovered != 0 {
		t.Fatalf("bias did not disable gap detection: %+v", brokenTr.Totals)
	}
	if liveTr.Totals.Recovered != 1 {
		t.Fatalf("healthy engine did not recover the drop: %+v", liveTr.Totals)
	}
	// …so seq 3 is neither delivered nor written off, which the oracles
	// see without the other substrate.
	want := "flow 777: seq 3 neither delivered nor written off"
	if got := Check(sc, brokenTr); len(got) != 1 || got[0] != want {
		t.Fatalf("oracles on the broken transcript: %q, want [%q]", got, want)
	}
	if got := Check(sc, liveTr); len(got) != 0 {
		t.Fatalf("oracles on the healthy transcript: %q", got)
	}
}

// TestDiffReportsEachDivergenceKind pins the comparator's coverage: a
// transcript differing in delivery order, NAK ranges, write-offs and
// totals yields one finding per dimension.
func TestDiffReportsEachDivergenceKind(t *testing.T) {
	a := &Transcript{
		Flows: []FlowTranscript{{
			Experiment: 777,
			Delivered:  []Delivery{{Seq: 1}, {Seq: 2}},
			NAKs:       []string{"2"},
			Gaps:       []uint64{5},
		}},
		Totals: Totals{Delivered: 2},
	}
	b := &Transcript{
		Flows: []FlowTranscript{{
			Experiment: 777,
			Delivered:  []Delivery{{Seq: 2}, {Seq: 1}},
			NAKs:       []string{"2-3"},
			Gaps:       []uint64{6},
		}},
		Totals: Totals{Delivered: 3},
	}
	diff := Diff(a, b)
	if len(diff) != 5 { // two delivery slots + NAK + gap + totals
		t.Fatalf("diff found %d divergences, want 5: %v", len(diff), diff)
	}
	if len(Diff(a, a)) != 0 {
		t.Fatalf("self-diff not empty: %v", Diff(a, a))
	}
}

// TestCheckReportsEachLaw pins the oracles' coverage: a consistent
// transcript passes, and breaking one law at a time yields exactly one
// finding naming it.
func TestCheckReportsEachLaw(t *testing.T) {
	sc := Scenario{Flows: []FlowSpec{{Experiment: 777, Messages: 5}}}
	// Seq 2 recovered after one NAK; seq 4 written off after two.
	good := func() *Transcript {
		return &Transcript{
			Flows: []FlowTranscript{{
				Experiment: 777,
				Delivered:  []Delivery{{Seq: 1}, {Seq: 3}, {Seq: 2, Recovered: true}, {Seq: 5}},
				NAKs:       []string{"2", "4", "4"},
				Gaps:       []uint64{4},
			}},
			Totals: Totals{Received: 5, Delivered: 4, Duplicates: 1, NAKsSent: 3, Recovered: 1, Lost: 1},
		}
	}
	if got := Check(sc, good()); len(got) != 0 {
		t.Fatalf("consistent transcript flagged: %q", got)
	}
	for _, tc := range []struct {
		law    string
		mutate func(tr *Transcript)
		want   string
	}{
		{"a seq is never accounted for",
			func(tr *Transcript) { tr.Flows[0].Delivered[3].Seq = 6 },
			"flow 777: seq 5 neither delivered nor written off"},
		{"a seq is delivered and written off",
			func(tr *Transcript) { tr.Flows[0].Delivered[3].Seq = 4 },
			"flow 777: seq 4 delivered 1 times, written off 1 times"},
		{"recovered exceeds NAK-requested",
			func(tr *Transcript) {
				tr.Flows[0].Delivered[0].Recovered = true
				tr.Flows[0].Delivered[1].Recovered = true
				tr.Totals.Recovered = 3
			},
			"flow 777: 3 recovered deliveries, only 2 seqs NAKed"},
		{"totals disagree with the per-flow sums",
			func(tr *Transcript) { tr.Totals.NAKsSent = 4 },
			"totals {Received:0 Delivered:4 Duplicates:0 NAKsSent:4 Recovered:1 Lost:1}, " +
				"per-flow sums {Received:0 Delivered:4 Duplicates:0 NAKsSent:3 Recovered:1 Lost:1}"},
		{"received is not delivered + duplicates",
			func(tr *Transcript) { tr.Totals.Received = 4 },
			"received 4 ≠ delivered 4 + duplicates 1"},
	} {
		tr := good()
		tc.mutate(tr)
		if got := Check(sc, tr); len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: findings %q, want [%q]", tc.law, got, tc.want)
		}
	}
}
