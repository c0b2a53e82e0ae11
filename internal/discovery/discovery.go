// Package discovery implements the paper's §6 open challenge (1): building
// and sharing the "map of in-network programmable resources that DAQ
// workloads can use". The paper suggests piggy-backing on BGP; this
// reproduction floods ResourceAdvert control packets hop by hop between
// participating elements, which preserves the behaviour that matters —
// every participant converges on the same resource map, from which Plan
// derives mode-change rules — without importing a BGP stack.
//
// An Agent attaches to any netsim element via Wrap (a decorating handler):
// adverts are consumed and re-flooded with decremented TTL; all other
// frames pass through to the wrapped element untouched. Agents advertise
// their own resource periodically for a bounded number of rounds (so
// simulations drain) and expire entries that stop being refreshed.
//
// The package also plans: ResourceMap is the paper's map of in-network
// programmable resources (§6), and Plan assigns each path segment a mode
// from dmtp's table (§5.3). The pilot builds the map by hand; an Agent
// assembles it from what it learned.
package discovery

import (
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Entry is one learned resource with bookkeeping.
type Entry struct {
	Advert   wire.ResourceAdvert
	LastSeen sim.Time
	// Hops is the TTL decrement observed, a rough distance measure.
	Hops int
}

// Config tunes an agent.
type Config struct {
	// Self, when non-zero (Origin set), is this element's own advertised
	// resource.
	Self wire.ResourceAdvert
	// Interval between advertisement rounds; zero means 50 ms.
	Interval time.Duration
	// Rounds bounds periodic advertising so simulations terminate; zero
	// means 5.
	Rounds int
	// TTL for originated adverts; zero means 8.
	TTL uint8
	// HoldFactor×Interval is how long an un-refreshed entry stays in the
	// snapshot; zero means 3.
	HoldFactor int
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.TTL == 0 {
		c.TTL = 8
	}
	if c.HoldFactor == 0 {
		c.HoldFactor = 3
	}
	return c
}

// Agent participates in resource flooding on behalf of one element.
type Agent struct {
	cfg  Config
	node *netsim.Node
	nw   *netsim.Network

	table map[wire.Addr]*Entry
	seqNo uint32
	round int

	// Originated counts self-adverts sent; Relayed counts re-floods.
	Originated, Relayed uint64
}

// NewAgent creates an agent; call Start after the node is connected.
func NewAgent(cfg Config) *Agent {
	return &Agent{cfg: cfg.withDefaults(), table: make(map[wire.Addr]*Entry)}
}

// Start begins periodic advertising (if Self is set). It must run after
// topology construction so adverts reach live links.
func (a *Agent) Start() {
	if a.node == nil {
		panic("discovery: agent not attached; use Wrap")
	}
	if a.cfg.Self.Origin.IsZero() {
		return
	}
	a.advertise()
}

func (a *Agent) advertise() {
	a.round++
	a.seqNo++
	ad := a.cfg.Self
	ad.SeqNo = a.seqNo
	ad.TTL = a.cfg.TTL
	a.learn(ad, a.cfg.TTL)
	a.flood(ad, -1)
	a.Originated++
	if a.round < a.cfg.Rounds {
		a.nw.Loop().After(a.cfg.Interval, a.advertise)
	}
}

// flood sends the advert out every port except skipPort.
func (a *Agent) flood(ad wire.ResourceAdvert, skipPort int) {
	data, err := ad.AppendTo(nil)
	if err != nil {
		return
	}
	for i, p := range a.node.Ports {
		if i == skipPort {
			continue
		}
		p.Send(&netsim.Frame{
			Src:  a.node.Addr,
			Dst:  wire.Addr{}, // adverts are link-local floods
			Data: append([]byte(nil), data...),
			Born: a.nw.Now(),
		})
	}
}

// handle ingests a received advert; returns true if it was consumed.
func (a *Agent) handle(ingress *netsim.Port, f *netsim.Frame) bool {
	v := wire.View(f.Data)
	if _, err := v.Check(); err != nil || v.ConfigID() != wire.ConfigResourceAdvert {
		return false
	}
	ad, err := wire.DecodeResourceAdvert(f.Data)
	if err != nil {
		return true // malformed advert: consume silently
	}
	if !a.learn(*ad, ad.TTL) {
		return true // stale or duplicate: stop the flood here
	}
	if ad.TTL > 0 {
		fwd := *ad
		fwd.TTL--
		a.flood(fwd, ingress.Index)
		a.Relayed++
	}
	return true
}

// learn updates the table; reports whether the advert was fresh.
func (a *Agent) learn(ad wire.ResourceAdvert, ttl uint8) bool {
	e, ok := a.table[ad.Origin]
	if ok && e.Advert.SeqNo >= ad.SeqNo {
		return false
	}
	a.table[ad.Origin] = &Entry{
		Advert:   ad,
		LastSeen: a.nw.Now(),
		Hops:     int(a.cfg.TTL) - int(ttl),
	}
	return true
}

// Snapshot returns the live entries, ordered by origin address, excluding
// ones that have not been refreshed within the hold time.
func (a *Agent) Snapshot() []Entry {
	hold := time.Duration(a.cfg.HoldFactor) * a.cfg.Interval
	var out []Entry
	for _, e := range a.table {
		if a.nw.Now().Sub(e.LastSeen) <= hold {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := out[i].Advert.Origin, out[j].Advert.Origin
		if ai.IP != aj.IP {
			for k := range ai.IP {
				if ai.IP[k] != aj.IP[k] {
					return ai.IP[k] < aj.IP[k]
				}
			}
		}
		return ai.Port < aj.Port
	})
	return out
}

// ResourceMap assembles a ResourceMap from the discovered entries and the
// operator-supplied segment descriptions — the dynamic replacement for the
// statically configured map the pilot "pre-supposes" (§5.4). An entry of a
// kind this build does not know is skipped.
func (a *Agent) ResourceMap(segments []Segment) *ResourceMap {
	m := &ResourceMap{Segments: segments}
	for _, e := range a.Snapshot() {
		if e.Advert.Kind == 0 || e.Advert.Kind > wire.ResourceTelemetry {
			continue
		}
		seg := int(e.Advert.Segment)
		if seg >= len(segments) {
			seg = len(segments) - 1
		}
		m.Resources = append(m.Resources, Resource{
			Name:          e.Advert.Origin.String(),
			Addr:          e.Advert.Origin,
			Kind:          e.Advert.Kind,
			Segment:       seg,
			CapacityBytes: int(e.Advert.CapacityBytes),
		})
	}
	return m
}

// Wrap decorates an existing handler with an agent: adverts are consumed
// by the agent, everything else reaches the inner handler. The returned
// handler must be the one registered with netsim.AddNode.
type Wrap struct {
	Inner netsim.Handler
	Agent *Agent
}

// NewWrap pairs an agent with the element it serves.
func NewWrap(inner netsim.Handler, agent *Agent) *Wrap {
	return &Wrap{Inner: inner, Agent: agent}
}

// Attach implements netsim.Handler.
func (w *Wrap) Attach(n *netsim.Node) {
	w.Agent.node = n
	w.Agent.nw = n.Net
	w.Inner.Attach(n)
}

// HandleFrame implements netsim.Handler.
func (w *Wrap) HandleFrame(ingress *netsim.Port, f *netsim.Frame) {
	if w.Agent.handle(ingress, f) {
		return
	}
	w.Inner.HandleFrame(ingress, f)
}
