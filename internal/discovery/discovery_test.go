package discovery

import (
	"testing"
	"time"

	"repro/internal/dmtp"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// line builds a chain of n wrapped sinks: n0 ── n1 ── … ── n(k-1),
// each with an agent; agents[i] advertises selfs[i] (zero origin = relay
// only).
func line(t *testing.T, selfs []wire.ResourceAdvert, cfgMut func(*Config)) (*netsim.Network, []*Agent) {
	t.Helper()
	nw := netsim.New(1)
	agents := make([]*Agent, len(selfs))
	nodes := make([]*netsim.Node, len(selfs))
	for i, self := range selfs {
		cfg := Config{Self: self, Interval: 10 * time.Millisecond, Rounds: 3}
		if cfgMut != nil {
			cfgMut(&cfg)
		}
		agents[i] = NewAgent(cfg)
		addr := wire.AddrFrom(10, 0, byte(i), 1, 1)
		nodes[i] = nw.AddNode(addr.String(), addr, NewWrap(&netsim.Sink{}, agents[i]))
	}
	for i := 1; i < len(nodes); i++ {
		nw.Connect(nodes[i-1], nodes[i], netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 100 * time.Microsecond})
	}
	return nw, agents
}

func bufferAdvert(i byte, segment uint8) wire.ResourceAdvert {
	return wire.ResourceAdvert{
		Origin:        wire.AddrFrom(10, 0, i, 1, 1),
		Kind:          wire.ResourceBuffer,
		Segment:       segment,
		CapacityBytes: 1 << 30,
	}
}

func TestFloodingConvergesAcrossALine(t *testing.T) {
	selfs := []wire.ResourceAdvert{
		bufferAdvert(0, 0),
		{}, // pure relay
		bufferAdvert(2, 1),
		{}, // pure relay
		bufferAdvert(4, 2),
	}
	nw, agents := line(t, selfs, nil)
	for _, a := range agents {
		a.Start()
	}
	nw.Loop().Run()

	// Every agent (including the relays) must know all three buffers.
	for i, a := range agents {
		snap := a.Snapshot()
		if len(snap) != 3 {
			t.Fatalf("agent %d learned %d resources", i, len(snap))
		}
	}
	// Distance accounting: the far buffer is more hops away than the near.
	snap := agents[0].Snapshot()
	var near, far Entry
	for _, e := range snap {
		switch e.Advert.Origin {
		case selfs[0].Origin:
			near = e
		case selfs[4].Origin:
			far = e
		}
	}
	if far.Hops <= near.Hops {
		t.Fatalf("hop accounting wrong: near %d, far %d", near.Hops, far.Hops)
	}
}

func TestTTLBoundsFloodScope(t *testing.T) {
	selfs := make([]wire.ResourceAdvert, 6)
	selfs[0] = bufferAdvert(0, 0)
	nw, agents := line(t, selfs, func(c *Config) { c.TTL = 2 })
	agents[0].Start()
	nw.Loop().Run()
	// TTL 2: origin + 2 relays reach agents 1 and 2 (agent 3 receives it
	// from agent 2's relay with TTL 0 → learned but not re-flooded).
	for i, a := range agents {
		got := len(a.Snapshot())
		want := 1
		if i > 3 {
			want = 0
		}
		if got != want {
			t.Fatalf("agent %d learned %d, want %d", i, got, want)
		}
	}
}

func TestDuplicateSuppressionStopsRefloodStorms(t *testing.T) {
	selfs := []wire.ResourceAdvert{bufferAdvert(0, 0), {}, {}}
	nw, agents := line(t, selfs, nil)
	agents[0].Start()
	nw.Loop().Run()
	// With 3 rounds and 2 relays on a line, each relay re-floods each
	// fresh advert exactly once.
	for i := 1; i < len(agents); i++ {
		if agents[i].Relayed > 3 {
			t.Fatalf("agent %d relayed %d times (storm?)", i, agents[i].Relayed)
		}
	}
}

func TestEntriesExpireWithoutRefresh(t *testing.T) {
	selfs := []wire.ResourceAdvert{bufferAdvert(0, 0), {}}
	nw, agents := line(t, selfs, func(c *Config) { c.Rounds = 1; c.HoldFactor = 2 })
	agents[0].Start()
	nw.Loop().Run()
	if len(agents[1].Snapshot()) != 1 {
		t.Fatal("advert not learned")
	}
	// Advance virtual time beyond the hold window with an idle event.
	nw.Loop().RunUntil(nw.Now().Add(time.Second))
	if len(agents[1].Snapshot()) != 0 {
		t.Fatal("stale entry survived")
	}
}

func TestResourceMapFeedsPlanner(t *testing.T) {
	selfs := []wire.ResourceAdvert{
		bufferAdvert(0, 0),
		{},
		{Origin: wire.AddrFrom(10, 0, 2, 1, 1), Kind: wire.ResourceModeChanger, Segment: 1},
	}
	nw, agents := line(t, selfs, nil)
	for _, a := range agents {
		a.Start()
	}
	nw.Loop().Run()

	segments := []Segment{
		{Name: "daq", RTT: 100 * time.Microsecond},
		{Name: "wan", RTT: 30 * time.Millisecond, Shared: true},
	}
	m := agents[2].ResourceMap(segments)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	plans, err := Plan(m, PlanPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].Mode.ConfigID != dmtp.ModeBare.ConfigID {
		t.Fatalf("segment 0 mode %q", plans[0].Mode.Name)
	}
	if plans[1].Mode.ConfigID != dmtp.ModeWAN.ConfigID {
		t.Fatalf("segment 1 mode %q", plans[1].Mode.Name)
	}
	if plans[1].Buffer != selfs[0].Origin {
		t.Fatalf("planner picked buffer %v", plans[1].Buffer)
	}
}

func TestResourceMapSkipsUnknownKinds(t *testing.T) {
	selfs := []wire.ResourceAdvert{
		{Origin: wire.AddrFrom(10, 0, 0, 1, 1), Kind: 77},
		{Origin: wire.AddrFrom(10, 0, 1, 1, 1), Kind: wire.ResourceTelemetry},
	}
	nw, agents := line(t, selfs, nil)
	for _, a := range agents {
		a.Start()
	}
	nw.Loop().Run()

	if n := len(agents[1].Snapshot()); n != 2 {
		t.Fatalf("agent learned %d adverts, want 2", n)
	}
	m := agents[1].ResourceMap([]Segment{{Name: "daq"}})
	if len(m.Resources) != 1 || m.Resources[0].Kind != wire.ResourceTelemetry {
		t.Fatalf("resources %+v: want only the telemetry element", m.Resources)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWrapPassesNonAdvertsThrough(t *testing.T) {
	nw := netsim.New(1)
	sink := &netsim.Sink{}
	agent := NewAgent(Config{})
	a := nw.AddNode("a", wire.AddrFrom(10, 0, 0, 1, 1), NewWrap(sink, agent))
	src := nw.AddNode("src", wire.AddrFrom(10, 0, 0, 2, 1), &netsim.Host{})
	nw.Connect(src, a, netsim.LinkConfig{RateBps: netsim.Gbps(1)})
	h := wire.Header{ConfigID: 1}
	data, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	src.SendTo(a.Addr, data)
	src.SendTo(a.Addr, []byte{1, 2, 3}) // junk also passes through
	nw.Loop().Run()
	if sink.Count != 2 {
		t.Fatalf("inner handler saw %d frames", sink.Count)
	}
}

func TestUnattachedAgentPanicsOnStart(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Start before Wrap should panic")
		}
	}()
	NewAgent(Config{Self: bufferAdvert(0, 0)}).Start()
}

// triangle builds A ── B ── C ── A with agents on every corner: the
// redundant-path topology where each advert reaches every node twice.
func triangle(t *testing.T, cfgMut func(*Config)) (*netsim.Network, []*Agent) {
	t.Helper()
	nw := netsim.New(1)
	selfs := []wire.ResourceAdvert{bufferAdvert(0, 0), {}, {}}
	agents := make([]*Agent, len(selfs))
	nodes := make([]*netsim.Node, len(selfs))
	for i, self := range selfs {
		cfg := Config{Self: self, Interval: 10 * time.Millisecond, Rounds: 3}
		if cfgMut != nil {
			cfgMut(&cfg)
		}
		agents[i] = NewAgent(cfg)
		addr := wire.AddrFrom(10, 0, byte(i), 1, 1)
		nodes[i] = nw.AddNode(addr.String(), addr, NewWrap(&netsim.Sink{}, agents[i]))
	}
	link := netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 100 * time.Microsecond}
	nw.Connect(nodes[0], nodes[1], link)
	nw.Connect(nodes[1], nodes[2], link)
	nw.Connect(nodes[2], nodes[0], link)
	return nw, agents
}

func TestDuplicateSeqFromTwoNeighborsDedups(t *testing.T) {
	// On the triangle, C hears every advert of A twice per round: once
	// directly, once relayed by B — same origin, same SeqNo, different
	// ingress. The SeqNo dedup must keep one table entry, relay each fresh
	// advert exactly once (no flood storm around the cycle), and keep the
	// nearest-path hop count (the direct copy arrives first).
	nw, agents := triangle(t, nil)
	agents[0].Start()
	nw.Loop().Run()

	for i := 1; i < 3; i++ {
		snap := agents[i].Snapshot()
		if len(snap) != 1 {
			t.Fatalf("agent %d learned %d entries, want 1", i, len(snap))
		}
		if snap[0].Hops != 0 {
			t.Fatalf("agent %d kept hop count %d; the direct copy should win", i, snap[0].Hops)
		}
		// 3 rounds → exactly 3 fresh adverts → exactly 3 re-floods; the
		// duplicate copy of each round must be consumed, not relayed.
		if agents[i].Relayed != 3 {
			t.Fatalf("agent %d relayed %d times, want 3", i, agents[i].Relayed)
		}
	}
}

func TestAdvertExpiresMidFloodThenFreshSeqRevives(t *testing.T) {
	// An entry that expires mid-flood must stay out of the snapshot even
	// if a late duplicate of the old advert straggles in — SeqNo dedup
	// outranks refresh — while a genuinely fresh SeqNo revives it.
	nw := netsim.New(1)
	adv := NewAgent(Config{Self: bufferAdvert(0, 0), Interval: 10 * time.Millisecond, Rounds: 1, HoldFactor: 2})
	rly := NewAgent(Config{Interval: 10 * time.Millisecond, Rounds: 1, HoldFactor: 2})
	a := nw.AddNode("a", wire.AddrFrom(10, 0, 0, 1, 1), NewWrap(&netsim.Sink{}, adv))
	b := nw.AddNode("b", wire.AddrFrom(10, 0, 1, 1, 1), NewWrap(&netsim.Sink{}, rly))
	h := nw.AddNode("h", wire.AddrFrom(10, 0, 2, 1, 1), &netsim.Host{})
	link := netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 100 * time.Microsecond}
	nw.Connect(a, b, link)
	nw.Connect(b, h, link)

	adv.Start()
	nw.Loop().Run()
	if len(rly.Snapshot()) != 1 {
		t.Fatal("advert not learned")
	}
	relayedBefore := rly.Relayed

	// Let the entry expire (hold is 2×10 ms).
	nw.Loop().RunUntil(nw.Now().Add(time.Second))
	if len(rly.Snapshot()) != 0 {
		t.Fatal("stale entry survived the hold window")
	}

	// A late duplicate of the already-seen advert (same origin, same
	// SeqNo 1) arrives from the other neighbor: it must neither revive
	// the entry nor be re-flooded.
	dup := bufferAdvert(0, 0)
	dup.SeqNo = 1
	dup.TTL = 8
	data, err := dup.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	h.SendTo(b.Addr, data)
	nw.Loop().Run()
	if len(rly.Snapshot()) != 0 {
		t.Fatal("stale duplicate revived an expired entry")
	}
	if rly.Relayed != relayedBefore {
		t.Fatalf("stale duplicate was re-flooded (%d → %d)", relayedBefore, rly.Relayed)
	}

	// A fresh advertising round (SeqNo 2) does revive it.
	adv.Start()
	nw.Loop().Run()
	if len(rly.Snapshot()) != 1 {
		t.Fatal("fresh advert did not revive the entry")
	}
	if rly.Relayed != relayedBefore+1 {
		t.Fatalf("fresh advert not relayed exactly once (%d → %d)", relayedBefore, rly.Relayed)
	}
}
