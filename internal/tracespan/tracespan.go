// Package tracespan reconstructs per-message span trees from the in-band
// FeatTraced hop stamps (internal/wire) at the receiving end of a DMTP
// flow: encapsulation at the sender, per-segment transit, stash residency
// at a retransmission buffer, NAK/retransmit recovery, and delivery.
//
// A Collector receives one Delivery per sampled message from the receiver
// engine (internal/dmtp), rebuilds absolute hop times from the 56-bit
// truncated wire stamps, retains a bounded ring of Records, feeds
// per-segment one-way-delay and recovery-latency histograms into an
// internal/metrics registry, and exports Chrome trace-event JSON loadable
// in Perfetto or chrome://tracing.
//
// Only sampled messages ever reach the collector: the datapath gate is
// wire.View.TraceSampled, so untraced and sampled-out messages pay zero
// allocations and zero atomics (pinned by AllocsPerRun tests).
package tracespan

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// DefaultMaxRecords bounds the collector's record ring when the caller
// passes 0 to NewCollector.
const DefaultMaxRecords = 4096

// Delivery is everything the receiver knows about one delivered sampled
// message: the decoded trace extension plus delivery-side context the
// receiver engine supplies (delivery stamp, recovery bookkeeping).
type Delivery struct {
	// Trace is the decoded FeatTraced extension as it arrived.
	Trace wire.TraceExt
	// Exp and Seq identify the message within its stream.
	Exp wire.ExperimentID
	Seq uint64
	// ConfigID is the packet's config at delivery (post-reshape).
	ConfigID uint8
	// At is the delivery stamp on the receiver's clock, in nanoseconds.
	At int64
	// Recovered marks a message restored by NAK retransmission;
	// DetectedAt is when its gap was detected and NAKs how many NAKs it
	// took.
	Recovered  bool
	DetectedAt int64
	NAKs       int
}

// HopStamp is one reconstructed hop: the element class that stamped (a
// wire.TraceHop* ID) and the absolute time, rebuilt from the truncated
// wire stamp relative to the delivery time.
type HopStamp struct {
	Hop uint8
	At  int64
}

// Record is the reconstructed trace of one delivered sampled message.
type Record struct {
	TraceID      uint32
	Exp          wire.ExperimentID
	Seq          uint64
	OriginConfig uint8
	FinalConfig  uint8
	// Hops holds the surviving hop stamps in chronological order;
	// LostStamps counts ring slots overwritten in flight (nonzero only
	// after more than wire.TraceHopSlots stamps).
	Hops       []HopStamp
	LostStamps int
	// DeliveredAt is the receiver's delivery stamp.
	DeliveredAt int64
	// Recovery bookkeeping, as in Delivery.
	Recovered  bool
	DetectedAt int64
	NAKs       int
}

// Span is one row of a record's span tree: a named interval on the
// receiver-normalised timebase.
type Span struct {
	// Name labels the interval: a hop name from the shared vocabulary
	// (wire.TraceHopName, "reshape:<cfg>" for reshape stamps, "rx" for
	// delivery) or the recovery span, named after the flight recorder's
	// "recovered" event kind.
	Name       string
	Start, End int64
}

// Spans expands the record into its span tree: one transit span per hop
// stamp (ending at the next stamp, the last ending at delivery), a
// zero-length "rx" delivery span, and — for recovered messages — a
// recovery span from gap detection to delivery. Stash residency is the
// visible duration of the reshape span on retransmitted messages: the
// stashed copy's next stamp is the retransmit stamp.
func (r Record) Spans() []Span {
	spans := make([]Span, 0, len(r.Hops)+2)
	for i, h := range r.Hops {
		end := r.DeliveredAt
		if i+1 < len(r.Hops) {
			end = r.Hops[i+1].At
		}
		spans = append(spans, Span{Name: hopSpanName(h.Hop), Start: h.At, End: end})
	}
	spans = append(spans, Span{Name: wire.TraceHopName(wire.TraceHopRx), Start: r.DeliveredAt, End: r.DeliveredAt})
	if r.Recovered {
		spans = append(spans, Span{Name: metrics.EvRecovered.String(), Start: r.DetectedAt, End: r.DeliveredAt})
	}
	return spans
}

// hopSpanName labels a hop span; reshape stamps carry their new config ID.
func hopSpanName(hop uint8) string {
	if cfg, ok := wire.TraceHopConfig(hop); ok {
		return "reshape:" + strconv.Itoa(int(cfg))
	}
	return wire.TraceHopName(hop)
}

// Structure renders the substrate-independent shape of the record — trace
// ID, hop-name sequence (including the logical rx hop), and recovery
// status — used by the conformance suite to assert that the sim and live
// substrates produce identical span structure.
func (r Record) Structure() string {
	s := "id=" + strconv.FormatUint(uint64(r.TraceID), 10) + " hops="
	for i, h := range r.Hops {
		if i > 0 {
			s += ">"
		}
		s += hopSpanName(h.Hop)
	}
	if len(r.Hops) > 0 {
		s += ">"
	}
	s += wire.TraceHopName(wire.TraceHopRx)
	if r.LostStamps > 0 {
		s += " lost=" + strconv.Itoa(r.LostStamps)
	}
	if r.Recovered {
		s += " recovered"
	}
	return s
}

// Collector accumulates reconstructed trace records at a receiver. It is
// safe for concurrent use; the receiver engine calls Observe only for
// sampled messages, so its mutex is never touched by the unsampled
// datapath.
type Collector struct {
	mu      sync.Mutex
	max     int
	recs    []Record
	start   int // ring: recs[start] is the oldest when len(recs) == max
	sampled uint64
	dropped uint64

	segHist [wire.TraceHopSlots]*metrics.Histogram
	recHist *metrics.Histogram
}

// NewCollector returns a collector retaining at most max records (0 means
// DefaultMaxRecords); the oldest record is dropped when the ring is full.
func NewCollector(max int) *Collector {
	if max <= 0 {
		max = DefaultMaxRecords
	}
	return &Collector{max: max}
}

// RegisterMetrics wires the collector's histograms and gauges into reg
// under the canonical names in internal/metrics: the per-segment
// one-way-delay histogram family, the recovery-latency histogram, and
// sampled/dropped gauges. Both substrates register through
// dmtp.RegisterTraceMetrics, which calls this, so they export identical
// names by construction.
func (c *Collector) RegisterMetrics(reg *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.segHist {
		c.segHist[i] = reg.Histogram(metrics.MetricTraceSegmentOWDPrefix + strconv.Itoa(i+1))
	}
	c.recHist = reg.Histogram(metrics.MetricTraceRecoveryNs)
	reg.RegisterFunc(metrics.MetricTraceSampled, func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.sampled)
	})
	reg.RegisterFunc(metrics.MetricTraceDropped, func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.dropped)
	})
}

// Observe records one sampled delivery: it reconstructs the hop timeline,
// appends a Record to the ring, and feeds the histograms. No-op on a nil
// collector (like a nil FlightRecorder, components take one unconditionally).
func (c *Collector) Observe(d Delivery) {
	if c == nil {
		return
	}
	rec := reconstruct(d)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sampled++
	for i, h := range rec.Hops {
		end := rec.DeliveredAt
		if i+1 < len(rec.Hops) {
			end = rec.Hops[i+1].At
		}
		if i < len(c.segHist) && c.segHist[i] != nil {
			c.segHist[i].Observe(end - h.At)
		}
	}
	if rec.Recovered && c.recHist != nil {
		c.recHist.Observe(rec.DeliveredAt - rec.DetectedAt)
	}
	if len(c.recs) < c.max {
		c.recs = append(c.recs, rec)
		return
	}
	c.recs[c.start] = rec
	c.start = (c.start + 1) % c.max
	c.dropped++
}

// reconstruct orders the surviving hop stamps chronologically and rebuilds
// absolute times relative to the delivery stamp.
func reconstruct(d Delivery) Record {
	n := int(d.Trace.HopCount)
	kept := n
	lost := 0
	if n > wire.TraceHopSlots {
		kept = wire.TraceHopSlots
		lost = n - wire.TraceHopSlots
	}
	hops := make([]HopStamp, 0, kept)
	for k := n - kept; k < n; k++ {
		slot := d.Trace.Hops[k%wire.TraceHopSlots]
		hops = append(hops, HopStamp{Hop: slot.Hop, At: absStamp(d.At, slot.Stamp)})
	}
	return Record{
		TraceID:      d.Trace.TraceID,
		Exp:          d.Exp,
		Seq:          d.Seq,
		OriginConfig: d.Trace.OriginConfig,
		FinalConfig:  d.ConfigID,
		Hops:         hops,
		LostStamps:   lost,
		DeliveredAt:  d.At,
		Recovered:    d.Recovered,
		DetectedAt:   d.DetectedAt,
		NAKs:         d.NAKs,
	}
}

// absStamp rebuilds an absolute time from a 56-bit truncated wire stamp,
// interpreting it relative to the delivery time: stamps are taken to lie
// within half the 2^56 ns window (~1.1 years) around delivery, which
// tolerates small clock skew in either direction.
func absStamp(deliveredAt int64, stamp uint64) int64 {
	delta := (uint64(deliveredAt) - stamp) & wire.TraceStampMask
	if delta > wire.TraceStampMask/2 {
		return deliveredAt + int64(wire.TraceStampMask+1-delta)
	}
	return deliveredAt - int64(delta)
}

// Records returns the retained records, oldest first. Nil on a nil
// collector.
func (c *Collector) Records() []Record {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, 0, len(c.recs))
	out = append(out, c.recs[c.start:]...)
	out = append(out, c.recs[:c.start]...)
	return out
}

// Sampled returns how many sampled deliveries were observed. Zero on a nil
// collector.
func (c *Collector) Sampled() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampled
}

// Dropped returns how many records the bounded ring discarded. Zero on a
// nil collector.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Structures returns Record.Structure for every retained record, oldest
// first — the conformance suite's span-structure transcript.
func (c *Collector) Structures() []string {
	recs := c.Records()
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Structure()
	}
	return out
}

// traceEvent is one Chrome trace-event object ("X" complete spans, "i"
// instants, "M" metadata), the JSON schema Perfetto and chrome://tracing
// load.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	Pid   uint32         `json:"pid"`
	Tid   uint32         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// spanCategory is the trace-event category of every reconstructed span.
const spanCategory = "trace"

// traceDoc is the top-level Chrome trace-event JSON document.
type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceJSON renders every retained record as Chrome trace-event JSON:
// one Perfetto "process" per experiment, one "thread" per trace ID, one
// complete ("X") event per span. Times are normalised so the earliest
// stamp is t=0.
func (c *Collector) WriteTraceJSON(w io.Writer) error {
	recs := c.Records()
	var epoch int64
	for _, r := range recs {
		for _, h := range r.Hops {
			if epoch == 0 || h.At < epoch {
				epoch = h.At
			}
		}
		if r.Recovered && (epoch == 0 || r.DetectedAt < epoch) {
			epoch = r.DetectedAt
		}
		if epoch == 0 || r.DeliveredAt < epoch {
			epoch = r.DeliveredAt
		}
	}
	doc := traceDoc{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	seenPid := map[uint32]bool{}
	for _, r := range recs {
		pid := r.Exp.Experiment()
		if !seenPid[pid] {
			seenPid[pid] = true
			doc.TraceEvents = append(doc.TraceEvents, traceEvent{
				Name: "process_name", Phase: "M", Pid: pid,
				Args: map[string]any{"name": fmt.Sprintf("exp %d", pid)},
			})
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: "thread_name", Phase: "M", Pid: pid, Tid: r.TraceID,
			Args: map[string]any{"name": fmt.Sprintf("trace %d seq %d", r.TraceID, r.Seq)},
		})
		args := map[string]any{
			"seq":           r.Seq,
			"origin_config": r.OriginConfig,
			"final_config":  r.FinalConfig,
		}
		if r.NAKs > 0 {
			args["naks"] = r.NAKs
		}
		if r.LostStamps > 0 {
			args["lost_stamps"] = r.LostStamps
		}
		for _, sp := range r.Spans() {
			doc.TraceEvents = append(doc.TraceEvents, traceEvent{
				Name: sp.Name, Cat: spanCategory, Phase: "X",
				TsUs:  float64(sp.Start-epoch) / 1e3,
				DurUs: float64(sp.End-sp.Start) / 1e3,
				Pid:   pid, Tid: r.TraceID, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteFlightTrace renders flight-recorder events as Chrome trace-event
// instants ("i" phase), named with the shared event-kind vocabulary, so
// daemons without a span collector (sender, relay) can still export their
// protocol timeline to Perfetto via -trace-out.
func WriteFlightTrace(w io.Writer, events []metrics.Event) error {
	var epoch int64
	for i, ev := range events {
		if i == 0 || ev.At < epoch {
			epoch = ev.At
		}
	}
	doc := traceDoc{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	for _, ev := range events {
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: ev.Kind.String(), Cat: "flight", Phase: "i",
			TsUs: float64(ev.At-epoch) / 1e3,
			Pid:  uint32(ev.Exp >> 8), Scope: "g",
			Args: map[string]any{"seq": ev.Seq, "aux": ev.Aux},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
