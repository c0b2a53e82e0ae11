// Package p4sim emulates the programmable network hardware of the paper's
// pilot study — the Tofino2 switch and Alveo FPGA NICs — as a match-action
// pipeline with P4-like discipline:
//
//   - header-only processing: stages see the DMTP header (a wire.View) and
//     per-packet metadata, never the payload (paper §1: "the use of
//     programmability is limited to header processing, making it suitable
//     for P4-programmable hardware");
//   - no floating point (Tofino has none — see the Fingerhut reference
//     [25] in the paper); all stage arithmetic is integer;
//   - bounded per-packet work: every packet traverses the fixed stage list
//     exactly once, and each stage performs one read-modify-write per
//     register array it touches;
//   - stateful objects are match-action tables, register arrays, and
//     counters, as on Tofino.
//
// Its stages — age tracker, deadline marker, duplicator, back-pressure
// monitor, forwarder, experiment counter — read header fields and rewrite
// some in place, but none changes a packet's mode: internal/dmtp owns the
// mode table, and its RelayEngine is the one element that changes a mode.
//
// The pipeline is attached to the simulated network by Switch
// (a netsim.Handler), which parses frames, runs the pipeline after a fixed
// pipeline latency, and emits the resulting unicast/multicast copies and
// any control packets the stages mint.
package p4sim

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Meta is the per-packet metadata bus: what a P4 program would keep in
// standard/bridged metadata. Stages read and amend it; the switch acts on
// the final values.
type Meta struct {
	// Now is the packet's processing time at this element.
	Now sim.Time
	// IngressPort is the port the frame arrived on.
	IngressPort int
	// Src and Dst are the frame's addresses (carrier addressing).
	Src, Dst wire.Addr
	// Drop, when set, discards the packet at the end of the pipeline.
	Drop bool
	// DropReason names the stage decision for diagnostics.
	DropReason string
	// EgressPort is the chosen output; -1 means "not yet routed".
	EgressPort int
	// NewDst, if non-zero, rewrites the frame's destination.
	NewDst wire.Addr
	// Copies are additional (multicast) emissions of the packet.
	Copies []Copy
	// Mints are control packets fabricated by stages (deadline-exceeded
	// notifications, back-pressure signals), routed by destination.
	Mints []Mint
}

// Copy is a duplicated emission of the processed packet.
type Copy struct {
	Port int
	Dst  wire.Addr
	// Pkt, if non-nil, replaces the packet bytes for this copy (used when
	// a copy must carry a different mode than the primary).
	Pkt wire.View
}

// Mint is a control packet fabricated in the pipeline.
type Mint struct {
	Dst  wire.Addr
	Data []byte
}

// Reset reinitialises m for a new packet, truncating (but keeping the
// backing arrays of) Copies and Mints. A per-element scratch Meta reset
// before each packet makes the steady-state pipeline invocation
// allocation-free; the entries themselves are copied out by value before
// the next Reset, so reuse is safe.
func (m *Meta) Reset(now sim.Time, ingressPort int, src, dst wire.Addr) {
	m.Now = now
	m.IngressPort = ingressPort
	m.Src, m.Dst = src, dst
	m.Drop = false
	m.DropReason = ""
	m.EgressPort = -1
	m.NewDst = wire.Addr{}
	m.Copies = m.Copies[:0]
	m.Mints = m.Mints[:0]
}

// Context gives stages access to element state: the clock, register
// arrays, counters, and egress queue depths (Tofino exposes queue depth to
// the egress pipeline; the back-pressure program uses it).
type Context struct {
	now        sim.Time
	registers  map[string]*RegisterArray
	counters   map[string]*Counter
	queueDepth func(port int) int
	// expCounters memoizes the per-experiment counter pair so the
	// per-packet ExperimentCounter stage resolves counters by integer key
	// instead of formatting names (the names are built once per
	// experiment, on first sight).
	expCounters map[wire.ExperimentID]expCounterEntry
}

type expCounterEntry struct{ total, slice *Counter }

// NewContext creates a context; queueDepth may be nil (depths read as 0).
func NewContext(queueDepth func(port int) int) *Context {
	return &Context{
		registers:   make(map[string]*RegisterArray),
		counters:    make(map[string]*Counter),
		queueDepth:  queueDepth,
		expCounters: make(map[wire.ExperimentID]expCounterEntry),
	}
}

// Now returns the packet-processing timestamp.
func (c *Context) Now() sim.Time { return c.now }

// QueueDepth returns the frame count queued on an egress port.
func (c *Context) QueueDepth(port int) int {
	if c.queueDepth == nil {
		return 0
	}
	return c.queueDepth(port)
}

// Register returns (creating on first use) a named register array of the
// given size. Sizes must agree across uses.
func (c *Context) Register(name string, size int) *RegisterArray {
	if r, ok := c.registers[name]; ok {
		if r.size != size {
			panic(fmt.Sprintf("p4sim: register %q sized %d, requested %d", name, r.size, size))
		}
		return r
	}
	r := &RegisterArray{name: name, size: size, vals: make(map[int]uint64)}
	c.registers[name] = r
	return r
}

// Counter returns (creating on first use) a named counter.
func (c *Context) Counter(name string) *Counter {
	if ctr, ok := c.counters[name]; ok {
		return ctr
	}
	ctr := &Counter{}
	c.counters[name] = ctr
	return ctr
}

// RegisterArray is a fixed-size array of 64-bit registers, the stateful
// primitive of P4 hardware. Indexing is modulo the array size, as hash
// indexing on hardware would be.
type RegisterArray struct {
	name string
	size int
	vals map[int]uint64
}

func (r *RegisterArray) idx(i uint64) int { return int(i % uint64(r.size)) }

// Read returns the register at index i.
func (r *RegisterArray) Read(i uint64) uint64 { return r.vals[r.idx(i)] }

// Write stores v at index i.
func (r *RegisterArray) Write(i uint64, v uint64) { r.vals[r.idx(i)] = v }

// Counter counts packets and bytes.
type Counter struct {
	Packets uint64
	Bytes   uint64
}

// Add records one packet of n bytes.
func (c *Counter) Add(n int) {
	c.Packets++
	c.Bytes += uint64(n)
}

// Stage is one match-action unit in the pipeline.
type Stage interface {
	// Name identifies the stage in diagnostics.
	Name() string
	// Process inspects and optionally rewrites the packet header. It may
	// return a reshaped packet (mode changes alter header length); if the
	// returned view is nil the input packet continues unchanged.
	Process(ctx *Context, pkt wire.View, meta *Meta) (wire.View, error)
}

// Pipeline is an ordered stage list plus the element's state.
type Pipeline struct {
	Stages []Stage
	Ctx    *Context
	// Processed counts packets run through the pipeline.
	Processed uint64
	// Errors counts packets dropped due to stage errors (malformed
	// headers and the like).
	Errors uint64
}

// NewPipeline builds a pipeline over the given stages.
func NewPipeline(ctx *Context, stages ...Stage) *Pipeline {
	return &Pipeline{Stages: stages, Ctx: ctx}
}

// Run processes one packet, returning the (possibly reshaped) packet.
// On error the packet is marked dropped and the error returned for logs.
func (p *Pipeline) Run(pkt wire.View, meta *Meta) (wire.View, error) {
	p.Processed++
	p.Ctx.now = meta.Now
	for _, st := range p.Stages {
		out, err := st.Process(p.Ctx, pkt, meta)
		if err != nil {
			p.Errors++
			meta.Drop = true
			meta.DropReason = st.Name() + ": " + err.Error()
			return pkt, fmt.Errorf("p4sim: stage %s: %w", st.Name(), err)
		}
		if out != nil {
			pkt = out
		}
		if meta.Drop {
			return pkt, nil
		}
	}
	return pkt, nil
}
