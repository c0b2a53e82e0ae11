package p4sim

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// WildcardPort is the port key of a per-port table entry that applies to
// any ingress port without an entry of its own (AgeTracker's
// PortDeltaMicros).
const WildcardPort = -1

// AgeTracker accumulates packet age and sets the aged flag (paper §5.4:
// "An element updates an 'age' field, and it additionally updates an 'aged'
// flag if a maximum age threshold was exceeded by the time the packet
// reached that network element").
//
// If the packet carries an origin timestamp (FeatTimestamped) the age is
// set exactly to now−origin — scientific facilities run synchronised clocks
// (PTP/White Rabbit), which the paper's deployment presumes. Otherwise the
// per-ingress-port static delta (an operator-configured estimate of the
// upstream segment latency) is added.
type AgeTracker struct {
	// PortDeltaMicros maps ingress port → age increment; WildcardPort
	// supplies the default.
	PortDeltaMicros map[int]uint32
	// AgedSeen counts packets observed with (or given) the aged flag.
	AgedSeen uint64
}

// Name implements Stage.
func (a *AgeTracker) Name() string { return "age-tracker" }

// Process implements Stage.
func (a *AgeTracker) Process(ctx *Context, pkt wire.View, meta *Meta) (wire.View, error) {
	if pkt.IsControl() || !pkt.Features().Has(wire.FeatAgeTracked) {
		return nil, nil
	}
	var aged bool
	if origin, err := pkt.OriginTimestamp(); err == nil && origin > 0 {
		now := ctx.Now().Nanos()
		var ageMicros uint64
		if now > origin {
			ageMicros = (now - origin) / 1000
		}
		cur, err := pkt.Age()
		if err != nil {
			return nil, err
		}
		delta := uint32(0)
		if ageMicros > uint64(cur.AgeMicros) {
			d := ageMicros - uint64(cur.AgeMicros)
			if d > uint64(^uint32(0)) {
				d = uint64(^uint32(0))
			}
			delta = uint32(d)
		}
		aged, err = pkt.AddAge(delta)
		if err != nil {
			return nil, err
		}
	} else {
		delta, ok := a.PortDeltaMicros[meta.IngressPort]
		if !ok {
			delta = a.PortDeltaMicros[WildcardPort]
		}
		var err error
		aged, err = pkt.AddAge(delta)
		if err != nil {
			return nil, err
		}
	}
	if aged {
		a.AgedSeen++
	}
	return nil, nil
}

// DeadlineMarker checks FeatTimely deadlines and mints a DeadlineExceeded
// notification toward the configured sink when a packet is late. A register
// array suppresses notification floods: per experiment, at most one
// notification per SuppressWindow.
type DeadlineMarker struct {
	// Reporter identifies this element in notifications.
	Reporter wire.Addr
	// SuppressWindow rate-limits notifications per experiment; zero means
	// notify on every late packet.
	SuppressWindow time.Duration
	// DropExpired also drops late packets (an ablation knob; the default
	// pilot behaviour is mark-and-forward).
	DropExpired bool
	// Exceeded counts late packets observed.
	Exceeded uint64
	// Notified counts minted notifications.
	Notified uint64
}

// Name implements Stage.
func (d *DeadlineMarker) Name() string { return "deadline-marker" }

// Process implements Stage.
func (d *DeadlineMarker) Process(ctx *Context, pkt wire.View, meta *Meta) (wire.View, error) {
	if pkt.IsControl() || !pkt.Features().Has(wire.FeatTimely) {
		return nil, nil
	}
	deadline, notify, err := pkt.Deadline()
	if err != nil {
		return nil, err
	}
	now := ctx.Now().Nanos()
	if deadline == 0 || now <= deadline {
		return nil, nil
	}
	d.Exceeded++
	suppress := false
	if d.SuppressWindow > 0 {
		reg := ctx.Register("deadline-suppress", 1024)
		last := reg.Read(uint64(pkt.Experiment()))
		if last != 0 && now-last < uint64(d.SuppressWindow) {
			suppress = true
		} else {
			reg.Write(uint64(pkt.Experiment()), now)
		}
	}
	if !suppress && !notify.IsZero() {
		seq, _ := pkt.Seq() // zero when unsequenced; still useful
		note := wire.DeadlineExceeded{
			Experiment:    pkt.Experiment(),
			Seq:           seq,
			DeadlineNanos: deadline,
			ObservedNanos: now,
			Reporter:      d.Reporter,
		}
		data, err := note.AppendTo(nil)
		if err != nil {
			return nil, err
		}
		meta.Mints = append(meta.Mints, Mint{Dst: notify, Data: data})
		d.Notified++
	}
	if d.DropExpired {
		meta.Drop = true
		meta.DropReason = "deadline expired"
	}
	return nil, nil
}

// Duplicator clones packets of duplication groups toward additional
// consumers (paper §5.1: "Streams can be duplicated in the network to reach
// several downstream researchers directly"). The group table maps a
// duplication group to egress targets; the remaining scope is decremented
// on copies so chains of duplicators terminate.
type Duplicator struct {
	groups map[uint32][]Copy
	// Duplicated counts minted copies.
	Duplicated uint64
}

// NewDuplicator returns an empty duplication table.
func NewDuplicator() *Duplicator {
	return &Duplicator{groups: make(map[uint32][]Copy)}
}

// Group installs duplication targets for a group ID.
func (d *Duplicator) Group(id uint32, targets ...Copy) *Duplicator {
	d.groups[id] = append(d.groups[id], targets...)
	return d
}

// Name implements Stage.
func (d *Duplicator) Name() string { return "duplicator" }

// Process implements Stage.
func (d *Duplicator) Process(ctx *Context, pkt wire.View, meta *Meta) (wire.View, error) {
	if pkt.IsControl() || !pkt.Features().Has(wire.FeatDuplicate) {
		return nil, nil
	}
	dup, err := pkt.Dup()
	if err != nil {
		return nil, err
	}
	if dup.Scope == 0 {
		return nil, nil
	}
	targets := d.groups[dup.Group]
	for _, tgt := range targets {
		cp := pkt.Clone()
		if err := cp.SetDupScope(dup.Scope - 1); err != nil {
			return nil, err
		}
		meta.Copies = append(meta.Copies, Copy{Port: tgt.Port, Dst: tgt.Dst, Pkt: cp})
		d.Duplicated++
	}
	return nil, nil
}

// BackPressureMonitor inspects the chosen egress queue and relays a
// back-pressure signal toward the configured sink when occupancy crosses
// the threshold (paper §5.1: "if an element receives signals of downstream
// congestion or loss, it can relay a back-pressure signal to the sender").
// It must run after the Forwarder so the egress port is known.
type BackPressureMonitor struct {
	// HighWater is the queue depth (frames) above which pressure is
	// signalled; LowWater clears it.
	HighWater, LowWater int
	// RateHintMbps is suggested to the sender when signalling.
	RateHintMbps uint32
	// Reporter identifies this element.
	Reporter wire.Addr
	// SuppressWindow rate-limits signals per experiment.
	SuppressWindow time.Duration
	// Signalled counts minted signals.
	Signalled uint64
}

// Name implements Stage.
func (b *BackPressureMonitor) Name() string { return "backpressure" }

// Process implements Stage.
func (b *BackPressureMonitor) Process(ctx *Context, pkt wire.View, meta *Meta) (wire.View, error) {
	if pkt.IsControl() || !pkt.Features().Has(wire.FeatBackPressure) || meta.EgressPort < 0 {
		return nil, nil
	}
	depth := ctx.QueueDepth(meta.EgressPort)
	bp, err := pkt.BackPressure()
	if err != nil {
		return nil, err
	}
	var level uint8
	switch {
	case depth >= b.HighWater && b.HighWater > 0:
		// Scale level with overshoot, saturating at 255.
		over := depth - b.HighWater
		l := 128 + over
		if l > 255 {
			l = 255
		}
		level = uint8(l)
	case depth <= b.LowWater:
		level = 0
	default:
		return nil, nil // hysteresis band: leave header level as is
	}
	if err := pkt.SetBackPressureLevel(level); err != nil {
		return nil, err
	}
	if level == 0 || bp.Sink.IsZero() {
		return nil, nil
	}
	if b.SuppressWindow > 0 {
		reg := ctx.Register("bp-suppress", 1024)
		now := ctx.Now().Nanos()
		last := reg.Read(uint64(pkt.Experiment()))
		if last != 0 && now-last < uint64(b.SuppressWindow) {
			return nil, nil
		}
		reg.Write(uint64(pkt.Experiment()), now)
	}
	sig := wire.BackPressureSignal{
		Experiment:   pkt.Experiment(),
		Level:        level,
		RateHintMbps: b.RateHintMbps,
		Reporter:     b.Reporter,
	}
	data, err := sig.AppendTo(nil)
	if err != nil {
		return nil, err
	}
	meta.Mints = append(meta.Mints, Mint{Dst: bp.Sink, Data: data})
	b.Signalled++
	return nil, nil
}

// Forwarder routes by exact destination match with an optional default,
// setting the egress port in the metadata.
type Forwarder struct {
	routes      map[wire.Addr]int
	defaultPort int
	hasDefault  bool
	// NoRoute counts packets dropped for lack of a route.
	NoRoute uint64
}

// NewForwarder returns an empty forwarding table.
func NewForwarder() *Forwarder { return &Forwarder{routes: make(map[wire.Addr]int)} }

// Route installs dst → port.
func (f *Forwarder) Route(dst wire.Addr, port int) *Forwarder {
	f.routes[dst] = port
	return f
}

// SetDefault installs the default egress.
func (f *Forwarder) SetDefault(port int) *Forwarder {
	f.defaultPort, f.hasDefault = port, true
	return f
}

// Lookup resolves a destination to an egress port.
func (f *Forwarder) Lookup(dst wire.Addr) (int, bool) {
	if p, ok := f.routes[dst]; ok {
		return p, true
	}
	if f.hasDefault {
		return f.defaultPort, true
	}
	return 0, false
}

// Name implements Stage.
func (f *Forwarder) Name() string { return "forwarder" }

// Process implements Stage.
func (f *Forwarder) Process(ctx *Context, pkt wire.View, meta *Meta) (wire.View, error) {
	port, ok := f.Lookup(meta.Dst)
	if !ok {
		f.NoRoute++
		meta.Drop = true
		meta.DropReason = fmt.Sprintf("no route to %v", meta.Dst)
		return nil, nil
	}
	meta.EgressPort = port
	return nil, nil
}

// ExperimentCounter counts packets and bytes per experiment and slice,
// giving operators the per-partition visibility Req 8 asks the header to
// enable.
type ExperimentCounter struct{}

// Name implements Stage.
func (ExperimentCounter) Name() string { return "experiment-counter" }

// Process implements Stage.
func (ExperimentCounter) Process(ctx *Context, pkt wire.View, meta *Meta) (wire.View, error) {
	exp := pkt.Experiment()
	ent, ok := ctx.expCounters[exp]
	if !ok {
		// First packet of this (experiment, slice): build the names once
		// and memoize the counter pair; every later packet is a map hit.
		ent = expCounterEntry{
			total: ctx.Counter(fmt.Sprintf("exp/%d", exp.Experiment())),
			slice: ctx.Counter(fmt.Sprintf("exp/%d/slice/%d", exp.Experiment(), exp.Slice())),
		}
		ctx.expCounters[exp] = ent
	}
	ent.total.Add(len(pkt))
	ent.slice.Add(len(pkt))
	return nil, nil
}
