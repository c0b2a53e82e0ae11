// Package conformance is the differential test harness for the two DMTP
// substrates. One scenario — one or more flows interleaved through one
// relay, a scripted egress-loss plan from internal/faults, and an
// optional buffer-node crash/restart — is executed twice: once on the
// simulator pipeline (core.Sender → core.BufferNode → core.Receiver over
// netsim links) and once on the live pipeline (live.Sender → live.Relay →
// live.Receiver over real loopback sockets, with protocol time driven by
// a shared dmtp.FakeClock). Both runs produce a Transcript — each flow's
// delivery order, NAK ranges and permanent-loss write-offs, plus the
// receiver's span structures and final counters — and Diff reports any
// divergence as data. A single-flow scenario is the N = 1 case.
//
// The suite works because both adapters are thin shells around the same
// dmtp engines: gap detection, NAK backoff jitter (seeded), write-off
// decisions and stash service are substrate-independent, so identical
// inputs must yield identical transcripts. A deliberately biased engine
// (dmtp.GapFloorBias) must therefore make the comparator fail — the
// suite's self-test. Check applies transcript oracles to one substrate's
// output alone, catching bugs both substrates would share.
package conformance

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/wire"
)

// FlowSpec is one flow in a scenario: an experiment number and how many
// messages it sends.
type FlowSpec struct {
	// Experiment is the flow's 24-bit experiment number (slice 0).
	Experiment uint32
	// Messages is the number of DAQ messages the flow sends.
	Messages int
}

// Scenario is one substrate-independent conformance run: the flows and
// their send schedule, the fault plan, and the shared NAK tuning.
type Scenario struct {
	// Flows are the participating flows, each from its own sender
	// through one relay to one receiver. Sends interleave round-robin
	// (flow 0 msg 1, flow 1 msg 1, …, flow 0 msg 2, …); the k-th send
	// (1-based) goes at k·Interval of virtual time.
	Flows []FlowSpec
	// Interval is the virtual spacing between consecutive sends.
	Interval time.Duration
	// DropEgress lists 1-based egress data-packet indices (all flows
	// merged, forwards and retransmissions in send order) dropped on the
	// buffer→receiver leg — faults.Spec.DropPackets on both substrates.
	// With round-robin interleaving and no losses before it, egress index
	// k belongs to flow (k-1) mod len(Flows).
	DropEgress []uint64
	// DupEgress lists 1-based egress data-packet indices duplicated on the
	// buffer→receiver leg — faults.Spec.DupPackets on both substrates.
	DupEgress []uint64
	// FlapEgress lists index-space link-down windows on the same leg —
	// faults.Spec.DropWindows on both substrates. Index windows, not
	// elapsed-clock Flaps, because only the offered-packet count is
	// identical across virtual and wall clocks.
	FlapEgress []faults.IndexWindow
	// CrashAt, when nonzero, crash+restarts the buffer node at this
	// virtual instant, colding its retransmission stash.
	CrashAt time.Duration
	// Shards is the relay/buffer shard count on both substrates.
	Shards int

	// NAK tuning, applied identically to both receivers.
	NAKDelay    time.Duration
	NAKRetry    time.Duration
	NAKRetryMax time.Duration
	MaxNAKs     int
	// Seed drives the NAK retry jitter in both engines.
	Seed int64
	// FaultSeed seeds the fault plan (unused by scripted drops, but part
	// of the plan identity).
	FaultSeed int64
	// TraceSample, when positive, enables in-band tracing at every sender
	// (every TraceSample'th message) and span collection at both
	// receivers; the transcripts then carry the reconstructed span
	// structures, which must match across substrates.
	TraceSample int
	// BatchSize is the depth of the live senders' flush ring (zero: a
	// ring of one), which on supporting kernels is written with
	// sendmmsg/GSO. The simulator has no syscall layer, so this only affects
	// the live run; the replay must stay byte-identical regardless,
	// which is exactly what a differential run with BatchSize set
	// proves. The lockstep driver is unaffected: it already barriers on
	// the relay's ingest counter after every send.
	BatchSize int
}

// plan builds the scenario's scripted fault plan for the egress leg.
func (sc Scenario) plan() *faults.Plan {
	return faults.New(faults.Spec{
		Seed:        sc.FaultSeed,
		DropPackets: sc.DropEgress,
		DupPackets:  sc.DupEgress,
		DropWindows: sc.FlapEgress,
	})
}

// send is one entry of the merged round-robin schedule.
type send struct {
	flow int // index into Scenario.Flows
	msg  int // 1-based per-flow message index
	at   time.Duration
}

// sends flattens the scenario into its merged round-robin send schedule:
// the k-th send (1-based) goes at k·Interval.
func (sc Scenario) sends() []send {
	var out []send
	for round := 1; ; round++ {
		progressed := false
		for fi, fl := range sc.Flows {
			if round > fl.Messages {
				continue
			}
			out = append(out, send{flow: fi, msg: round, at: time.Duration(len(out)+1) * sc.Interval})
			progressed = true
		}
		if !progressed {
			return out
		}
	}
}

// payload is the deterministic message body for flow exp's i-th message
// (1-based), identical on both substrates.
func payload(exp uint32, i int) []byte {
	return []byte(fmt.Sprintf("conf-%d-%03d", exp, i))
}

// Delivery is one delivered message, as the transcript records it.
type Delivery struct {
	Seq       uint64
	Recovered bool
}

// Totals are the receiver counters both substrates must agree on.
type Totals struct {
	Received   uint64
	Delivered  uint64
	Duplicates uint64
	NAKsSent   uint64
	Recovered  uint64
	Lost       uint64
}

// FlowTranscript is everything observable about one flow: the exact
// delivery order, each NAK's requested ranges (in emission order) and
// each sequence number written off as permanently lost.
type FlowTranscript struct {
	Experiment uint32
	Delivered  []Delivery
	NAKs       []string // formatted ranges, one entry per NAK packet
	Gaps       []uint64 // write-offs, in OnGap order
}

// Transcript is everything observable about one substrate's run: a
// FlowTranscript per flow in Scenario.Flows order, plus the receiver's
// span structures and final counters.
type Transcript struct {
	Flows []FlowTranscript
	// Spans holds the reconstructed span structure of every sampled traced
	// message (tracespan.Record.Structure), in collection order; empty
	// unless the scenario sets TraceSample.
	Spans  []string
	Totals Totals
}

// newTranscript returns an empty transcript for sc and the lookup from a
// receiver callback's experiment ID to its flow (nil for a stranger).
func newTranscript(sc Scenario) (*Transcript, func(wire.ExperimentID) *FlowTranscript) {
	tr := &Transcript{Flows: make([]FlowTranscript, len(sc.Flows))}
	idx := make(map[uint32]int, len(sc.Flows))
	for i, fl := range sc.Flows {
		tr.Flows[i].Experiment = fl.Experiment
		idx[fl.Experiment] = i
	}
	return tr, func(exp wire.ExperimentID) *FlowTranscript {
		if i, ok := idx[uint32(exp>>8)]; ok {
			return &tr.Flows[i]
		}
		return nil
	}
}

// FormatRanges renders NAK ranges canonically for transcript comparison.
func FormatRanges(rs []wire.SeqRange) string {
	s := ""
	for i, r := range rs {
		if i > 0 {
			s += ","
		}
		if r.From == r.To {
			s += fmt.Sprintf("%d", r.From)
		} else {
			s += fmt.Sprintf("%d-%d", r.From, r.To)
		}
	}
	return s
}

// Diff compares two transcripts flow by flow, then spans, then totals,
// and reports every divergence as a human-readable finding; an empty
// slice means the substrates conformed.
func Diff(sim, live *Transcript) []string {
	var out []string
	if len(sim.Flows) != len(live.Flows) {
		out = append(out, fmt.Sprintf("flow count: sim %d, live %d", len(sim.Flows), len(live.Flows)))
	}
	for i := range min(len(sim.Flows), len(live.Flows)) {
		s, l := &sim.Flows[i], &live.Flows[i]
		if s.Experiment != l.Experiment {
			out = append(out, fmt.Sprintf("flow[%d]: sim experiment %d, live %d", i, s.Experiment, l.Experiment))
			continue
		}
		p := fmt.Sprintf("flow %d: ", s.Experiment)
		out = diffSeq(out, p+"delivery", s.Delivered, l.Delivered)
		out = diffSeq(out, p+"NAK", s.NAKs, l.NAKs)
		out = diffSeq(out, p+"write-off", s.Gaps, l.Gaps)
	}
	out = diffSeq(out, "span", sim.Spans, live.Spans)
	if sim.Totals != live.Totals {
		out = append(out, fmt.Sprintf("totals: sim %+v, live %+v", sim.Totals, live.Totals))
	}
	return out
}

// diffSeq appends a finding for a length mismatch and one for each
// differing entry of the common prefix.
func diffSeq[T comparable](out []string, what string, sim, live []T) []string {
	if len(sim) != len(live) {
		out = append(out, fmt.Sprintf("%s count: sim %d %v, live %d %v", what, len(sim), sim, len(live), live))
	}
	for i := range min(len(sim), len(live)) {
		if sim[i] != live[i] {
			out = append(out, fmt.Sprintf("%s[%d]: sim %+v, live %+v", what, i, sim[i], live[i]))
		}
	}
	return out
}

// Check applies the transcript oracles to one substrate's run of sc and
// reports every violated law; an empty slice means the transcript is
// internally consistent. Unlike Diff it needs no second substrate, so it
// catches bugs both substrates share. Per flow:
//   - every sequence number in 1..max(delivered ∪ written off) is
//     delivered exactly once or written off exactly once, never both;
//   - recovered deliveries ≤ distinct numbers the flow's NAKs request.
//
// Across flows, Totals.Delivered, NAKsSent, Lost and Recovered equal the
// per-flow sums, and at quiescence Received = Delivered + Duplicates.
func Check(sc Scenario, tr *Transcript) []string {
	var out []string
	if len(tr.Flows) != len(sc.Flows) {
		out = append(out, fmt.Sprintf("flow count %d, scenario has %d", len(tr.Flows), len(sc.Flows)))
	}
	var sum Totals
	for _, f := range tr.Flows {
		p := fmt.Sprintf("flow %d: ", f.Experiment)
		seen := make(map[uint64][2]int) // seq → {deliveries, write-offs}
		recovered := uint64(0)
		for _, d := range f.Delivered {
			c := seen[d.Seq]
			c[0]++
			seen[d.Seq] = c
			if d.Recovered {
				recovered++
			}
		}
		for _, s := range f.Gaps {
			c := seen[s]
			c[1]++
			seen[s] = c
		}
		seqs := make([]uint64, 0, len(seen))
		for s := range seen {
			seqs = append(seqs, s)
		}
		slices.Sort(seqs)
		next := uint64(1) // lowest seq not yet accounted for
		for _, s := range seqs {
			switch {
			case s == next+1:
				out = append(out, fmt.Sprintf("%sseq %d neither delivered nor written off", p, next))
			case s > next:
				out = append(out, fmt.Sprintf("%sseqs %d-%d neither delivered nor written off", p, next, s-1))
			}
			if c := seen[s]; c != [2]int{1, 0} && c != [2]int{0, 1} {
				out = append(out, fmt.Sprintf("%sseq %d delivered %d times, written off %d times", p, s, c[0], c[1]))
			}
			next = s + 1
		}
		requested, err := nakRequested(f.NAKs)
		if err != nil {
			out = append(out, p+err.Error())
		} else if recovered > requested {
			out = append(out, fmt.Sprintf("%s%d recovered deliveries, only %d seqs NAKed", p, recovered, requested))
		}
		sum.Delivered += uint64(len(f.Delivered))
		sum.NAKsSent += uint64(len(f.NAKs))
		sum.Lost += uint64(len(f.Gaps))
		sum.Recovered += recovered
	}
	t := tr.Totals
	if got := (Totals{Delivered: t.Delivered, NAKsSent: t.NAKsSent, Lost: t.Lost, Recovered: t.Recovered}); got != sum {
		out = append(out, fmt.Sprintf("totals %+v, per-flow sums %+v", got, sum))
	}
	if t.Received != t.Delivered+t.Duplicates {
		out = append(out, fmt.Sprintf("received %d ≠ delivered %d + duplicates %d", t.Received, t.Delivered, t.Duplicates))
	}
	return out
}

// nakRequested counts the distinct sequence numbers a flow's formatted
// NAK ranges request.
func nakRequested(naks []string) (uint64, error) {
	var rs []wire.SeqRange
	for _, nak := range naks {
		for _, r := range strings.Split(nak, ",") {
			from, to, isRange := strings.Cut(r, "-")
			lo, err := strconv.ParseUint(from, 10, 64)
			hi := lo
			if err == nil && isRange {
				hi, err = strconv.ParseUint(to, 10, 64)
			}
			if err != nil || hi < lo {
				return 0, fmt.Errorf("malformed NAK %q", nak)
			}
			rs = append(rs, wire.SeqRange{From: lo, To: hi})
		}
	}
	// Count the union: sort by start and skip what an earlier range covered.
	slices.SortFunc(rs, func(a, b wire.SeqRange) int { return cmp.Compare(a.From, b.From) })
	n, next := uint64(0), uint64(0) // next: lowest seq not yet counted
	for _, r := range rs {
		if lo := max(r.From, next); lo <= r.To {
			n += r.To - lo + 1
			next = r.To + 1
		}
	}
	return n, nil
}
