package campaign

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/monitor/oracles"
	"repro/internal/wire"
)

// ledger is the delivery/loss bookkeeping one cell accumulates from the
// receiver's OnMessage/OnGap callbacks. It is consulted only after the
// event loop has drained, so it needs no locking.
type ledger struct {
	streams     map[wire.ExperimentID]*streamLedger
	unsequenced uint64
}

type streamLedger struct {
	delivered map[uint64]int
	lost      map[uint64]bool
	// lastDelivered and orderBreaks track delivery-order monotonicity for
	// ordered-mode cells.
	lastDelivered uint64
	orderBreaks   []string
	maxObserved   uint64
}

func newLedger() *ledger {
	return &ledger{streams: make(map[wire.ExperimentID]*streamLedger)}
}

func (l *ledger) stream(exp wire.ExperimentID) *streamLedger {
	st := l.streams[exp]
	if st == nil {
		st = &streamLedger{delivered: make(map[uint64]int), lost: make(map[uint64]bool)}
		l.streams[exp] = st
	}
	return st
}

func (l *ledger) delivered(m core.Message) {
	if m.Seq == 0 {
		l.unsequenced++
		return
	}
	st := l.stream(m.Experiment)
	st.delivered[m.Seq]++
	if m.Seq > st.maxObserved {
		st.maxObserved = m.Seq
	}
	if m.Seq <= st.lastDelivered && len(st.orderBreaks) < 5 {
		st.orderBreaks = append(st.orderBreaks,
			fmt.Sprintf("exp %d: seq %d delivered after seq %d", uint64(m.Experiment), m.Seq, st.lastDelivered))
	}
	if m.Seq > st.lastDelivered {
		st.lastDelivered = m.Seq
	}
}

func (l *ledger) writeOff(exp wire.ExperimentID, seq uint64) {
	st := l.stream(exp)
	st.lost[seq] = true
	if seq > st.maxObserved {
		st.maxObserved = seq
	}
}

// sequencedObserved sums max observed sequence numbers across streams —
// the denominator of the tail-loss computation.
func (l *ledger) sequencedObserved() int64 {
	var total int64
	for _, st := range l.streams {
		total += int64(st.maxObserved)
	}
	return total
}

// expOrder returns the ledger's experiment IDs sorted, so violation
// messages enumerate streams deterministically regardless of map order.
func (l *ledger) expOrder() []wire.ExperimentID {
	exps := make([]wire.ExperimentID, 0, len(l.streams))
	for exp := range l.streams {
		exps = append(exps, exp)
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i] < exps[j] })
	return exps
}

// capped appends finding to out unless the category already holds max
// entries, in which case a single "+more" marker is added once.
func capped(out []string, n *int, finding string) []string {
	const max = 5
	*n++
	if *n == max+1 {
		return append(out, finding+" (further findings of this kind suppressed)")
	}
	if *n > max {
		return out
	}
	return append(out, finding)
}

// check runs the delivery-ledger oracles: exactly-once delivery, no
// delivery of written-off sequences, no unexplained holes below the
// observed maximum, and (for ordered cells) monotone delivery order.
func (l *ledger) check(ordered bool) []string {
	var out []string
	for _, exp := range l.expOrder() {
		st := l.streams[exp]
		var dups, overlaps, holes int
		for seq := uint64(1); seq <= st.maxObserved; seq++ {
			n := st.delivered[seq]
			switch {
			case n > 1:
				out = capped(out, &dups, fmt.Sprintf("oracle/no-dup: exp %d seq %d delivered %d times", uint64(exp), seq, n))
			case n > 0 && st.lost[seq]:
				out = capped(out, &overlaps, fmt.Sprintf("oracle/ledger: exp %d seq %d both delivered and written off", uint64(exp), seq))
			case n == 0 && !st.lost[seq]:
				out = capped(out, &holes, fmt.Sprintf("oracle/ledger: exp %d seq %d neither delivered nor written off", uint64(exp), seq))
			}
		}
		if ordered {
			out = append(out, mapPrefix("oracle/ordered: ", st.orderBreaks)...)
		}
	}
	return out
}

func mapPrefix(prefix string, in []string) []string {
	out := make([]string, 0, len(in))
	for _, s := range in {
		out = append(out, prefix+s)
	}
	return out
}

// kindCount tallies flight-recorder events of one kind: how many there
// are, or with aux the sum of their Aux fields (for events that stand for
// a run of several, like evict). It returns ok == false when the ring
// wrapped (events were overwritten), in which case counts are not
// comparable to cumulative stats.
func kindCount(rec *metrics.FlightRecorder, kind metrics.EventKind, aux bool) (uint64, bool) {
	events := rec.Snapshot()
	if rec.Total() != uint64(len(events)) {
		return 0, false
	}
	var n uint64
	for _, e := range events {
		switch {
		case e.Kind != kind:
		case aux:
			n += e.Aux
		default:
			n++
		}
	}
	return n, true
}

// checkOracles runs every post-run invariant oracle against the cell
// environment and returns the findings.
func checkOracles(env *cellEnv, led *ledger, res *CellResult) []string {
	var out []string

	// Oracle: delivery ledger (exactly-once, delivery-xor-write-off, no
	// holes, ordered-mode ordering).
	out = append(out, led.check(env.workload == "steady")...)

	// Oracle: recovery state fully resolved at quiescence. The loop ran
	// every timer, and MaxNAKs bounds retries, so open gaps mean the
	// engine leaked recovery state.
	if n := env.recv.OutstandingGaps(); n != 0 {
		out = append(out, fmt.Sprintf("oracle/gaps: %d gaps outstanding at quiescence", n))
	}

	// Oracle: stash release balance. Every stashed byte is either still
	// buffered or was released exactly once (evict, trim, crash). The
	// predicate is shared with the fleet monitor's stash-balance watchdog
	// (internal/monitor/oracles), which evaluates the same invariant at
	// runtime from the dmtp.buf.stash_imbalance_bytes gauge.
	for _, b := range env.buffers {
		bs := b.Stats()
		if !oracles.StashBalanced(bs.BufferedBytes, bs.ReleasedBytes, uint64(b.BufferedBytes())) {
			out = append(out, fmt.Sprintf(
				"oracle/stash: buffer byte leak: stashed %d − released %d = %d, but occupancy is %d",
				bs.BufferedBytes, bs.ReleasedBytes, bs.BufferedBytes-bs.ReleasedBytes, b.BufferedBytes()))
		}
	}

	// Oracle: flight-recorder ↔ stats consistency. Event counts must
	// agree with cumulative counters unless the ring wrapped.
	st := env.recv.Stats
	recvPairs := []struct {
		kind metrics.EventKind
		want uint64
		name string
	}{
		{metrics.EvNAKSent, st.NAKsSent, "nak-sent vs NAKsSent"},
		{metrics.EvWriteOff, st.Lost, "write-off vs Lost"},
		{metrics.EvRecovered, st.Recovered, "recovered vs Recovered"},
	}
	for _, p := range recvPairs {
		if n, ok := kindCount(env.recvRec, p.kind, false); ok && n != p.want {
			out = append(out, fmt.Sprintf("oracle/flight: receiver %s: %d events, %d counted", p.name, n, p.want))
		}
	}
	for i, b := range env.buffers {
		// Stats records a pending eviction run, so it is read first.
		bs := b.Stats()
		bufPairs := []struct {
			kind metrics.EventKind
			aux  bool // an evict event stands for Aux evictions
			want uint64
			name string
		}{
			{metrics.EvNAKServed, false, bs.NAKs, "nak-served vs NAKs"},
			{metrics.EvEvict, true, bs.Evicted, "evict Aux vs Evicted"},
			{metrics.EvCrash, false, bs.Crashes, "crash vs Crashes"},
		}
		for _, p := range bufPairs {
			if n, ok := kindCount(env.bufRecs[i], p.kind, p.aux); ok && n != p.want {
				out = append(out, fmt.Sprintf("oracle/flight: buffer %d %s: %d events, %d counted", i, p.name, n, p.want))
			}
		}
	}

	// Oracle: metric registry ↔ stats consistency. The registered
	// dmtp.rx.* samples must reflect the same counters the engine
	// reports directly.
	samples := env.reg.Snapshot()
	metricPairs := []struct {
		name string
		want int64
	}{
		{metrics.MetricRxDelivered, int64(st.Delivered)},
		{metrics.MetricRxDuplicates, int64(st.Duplicates)},
		{metrics.MetricRxNAKsSent, int64(st.NAKsSent)},
		{metrics.MetricRxRecovered, int64(st.Recovered)},
		{metrics.MetricRxWriteOffs, int64(st.Lost)},
		{metrics.MetricRxOutstandingGaps, int64(env.recv.OutstandingGaps())},
	}
	for _, p := range metricPairs {
		got, ok := metrics.SampleValue(samples, p.name)
		if !ok {
			out = append(out, fmt.Sprintf("oracle/metrics: %s not exported", p.name))
			continue
		}
		if got != p.want {
			out = append(out, fmt.Sprintf("oracle/metrics: %s = %d, stats say %d", p.name, got, p.want))
		}
	}

	// Oracle: per-flow sequence isolation. Every sequenced stream the
	// receiver observed must map to sequencing state the upgrader actually
	// holds for that experiment — a delivery on a stream with SeqOf == 0
	// means sequence numbers bled across flows (or materialised from
	// nowhere), and an observed sequence above the flow's assignment
	// counter means one flow consumed another's numbering. The corrupt
	// plan can fabricate both and is exempt.
	if env.fault != "corrupt" {
		for _, exp := range led.expOrder() {
			stl := led.streams[exp]
			assigned := env.upgrader.SeqOf(exp)
			if assigned == 0 {
				out = append(out, fmt.Sprintf(
					"oracle/flow: exp %d observed at the receiver but never sequenced by the upgrader", uint64(exp)))
				continue
			}
			if stl.maxObserved > assigned {
				out = append(out, fmt.Sprintf(
					"oracle/flow: exp %d observed seq %d beyond the upgrader's assignment counter %d",
					uint64(exp), stl.maxObserved, assigned))
			}
		}
	}

	// Oracle: tail-loss accounting. Sequences the upgrader assigned but
	// the receiver never observed are legitimate only under fault plans
	// that can drop the stream's tail (nothing later arrives to reveal
	// the gap). The corrupt plan can additionally fabricate observations
	// of never-assigned sequences, so it is exempt entirely.
	switch env.fault {
	case "corrupt":
	case "gilbert", "chaos":
		if res.TailLoss < 0 {
			out = append(out, fmt.Sprintf("oracle/tail: observed %d more sequences than were assigned", -res.TailLoss))
		}
	default:
		if res.TailLoss != 0 {
			out = append(out, fmt.Sprintf("oracle/tail: tail loss %d under fault %q (expected 0)", res.TailLoss, env.fault))
		}
	}

	// Oracle: journal-replay balance. Every journal recovery — the
	// startup scan and any crash replay — must account exactly: append
	// records scanned minus removals applied (tombstones, trim sweeps,
	// same-key overwrites) equals entries replayed. A replay that
	// silently drops records (journal.ReplayDropBias simulates one in the
	// campaign self-test) breaks the balance here.
	for i, b := range env.buffers {
		for sh, rec := range b.JournalRecoveries() {
			if !oracles.ReplayBalanced(rec.Appended, rec.Tombstoned, rec.Replayed) {
				out = append(out, fmt.Sprintf(
					"oracle/journal: buffer %d shard %d replay imbalance: appended %d − tombstoned %d ≠ replayed %d",
					i, sh, rec.Appended, rec.Tombstoned, rec.Replayed))
			}
			if rec.TruncatedTail {
				out = append(out, fmt.Sprintf(
					"oracle/journal: buffer %d shard %d recovered a torn tail inside a cell (in-process crashes flush complete records)", i, sh))
			}
		}
	}

	// Oracle: durable crash cells lose nothing. The whole point of the
	// write-ahead journal: on the durable topology a crash fault must
	// replay the stash and write off zero messages — where every other
	// topology's crash cell legitimately pays the cold-buffer write-off.
	if env.topology == "durable" && env.fault == "crash" {
		if res.Lost != 0 {
			out = append(out, fmt.Sprintf("oracle/journal: durable crash cell wrote off %d messages, want 0", res.Lost))
		}
		if res.TailLoss != 0 {
			out = append(out, fmt.Sprintf("oracle/journal: durable crash cell shows tail loss %d, want 0", res.TailLoss))
		}
		if res.Replayed == 0 {
			out = append(out, "oracle/journal: durable crash cell replayed nothing — the restart never touched the journal")
		}
		if res.Crashes == 0 {
			out = append(out, "oracle/journal: durable crash cell never crashed — the scenario is vacuous")
		}
	}

	// Oracle: clean-cell strictness. With no fault injected, every loss
	// counter must be exactly zero.
	if env.fault == "clean" {
		cleanZero := []struct {
			name string
			v    uint64
		}{
			{"Lost", st.Lost}, {"Duplicates", st.Duplicates}, {"Rejected", st.Rejected},
			{"NAKsSent", st.NAKsSent}, {"Recovered", st.Recovered},
		}
		for _, c := range cleanZero {
			if c.v != 0 {
				out = append(out, fmt.Sprintf("oracle/clean: %s = %d on a fault-free run", c.name, c.v))
			}
		}
	}
	return out
}
