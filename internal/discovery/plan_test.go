package discovery

import (
	"testing"
	"time"

	"repro/internal/dmtp"
	"repro/internal/wire"
)

func pilotMap() *ResourceMap {
	return &ResourceMap{
		Segments: []Segment{
			{Name: "daq", RTT: 100 * time.Microsecond, RateBps: 100e9},
			{Name: "wan", RTT: 30 * time.Millisecond, RateBps: 100e9, LossProb: 1e-5, Shared: true},
			{Name: "campus", RTT: time.Millisecond, RateBps: 10e9, Shared: true},
		},
		Resources: []Resource{
			{Name: "dtn1", Addr: wire.AddrFrom(10, 0, 1, 1, 7000), Kind: wire.ResourceBuffer, Segment: 0, CapacityBytes: 1 << 30},
			{Name: "tofino", Addr: wire.AddrFrom(10, 0, 2, 1, 0), Kind: wire.ResourceModeChanger, Segment: 1},
		},
	}
}

func TestResourceMapValidateAndLookup(t *testing.T) {
	m := pilotMap()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	buf, ok := m.NearestBuffer(2)
	if !ok || buf.Name != "dtn1" {
		t.Fatalf("nearest buffer %+v %v", buf, ok)
	}
	if _, ok := m.NearestBuffer(-1); ok {
		t.Fatal("phantom buffer upstream of the path")
	}
	if rs := m.ResourcesIn(1); len(rs) != 1 || rs[0].Name != "tofino" {
		t.Fatalf("resources in segment 1: %+v", rs)
	}
	bad := &ResourceMap{Segments: []Segment{{Name: "x"}}, Resources: []Resource{{Name: "r", Kind: wire.ResourceBuffer, Segment: 5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range segment accepted")
	}
	if err := (&ResourceMap{}).Validate(); err == nil {
		t.Fatal("empty map accepted")
	}
}

func TestPlanReproducesPilotModes(t *testing.T) {
	plans, err := Plan(pilotMap(), PlanPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3 {
		t.Fatalf("%d plans", len(plans))
	}
	// Segment 0 (DAQ net, no upstream buffer): bare / mode 0.
	if plans[0].Mode.ConfigID != dmtp.ModeBare.ConfigID {
		t.Fatalf("daq segment mode %q", plans[0].Mode.Name)
	}
	// Segment 1 (WAN, buffer at DTN1 upstream): recoverable WAN mode.
	if plans[1].Mode.ConfigID != dmtp.ModeWAN.ConfigID {
		t.Fatalf("wan segment mode %q", plans[1].Mode.Name)
	}
	if plans[1].Buffer != wire.AddrFrom(10, 0, 1, 1, 7000) {
		t.Fatalf("wan buffer %v", plans[1].Buffer)
	}
	if plans[1].MaxAge <= 0 || plans[1].DeadlineBudget <= 0 {
		t.Fatal("wan budgets unset")
	}
	// Final segment: delivery mode (timeliness check at destination).
	if plans[2].Mode.ConfigID != dmtp.ModeDeliver.ConfigID {
		t.Fatalf("final segment mode %q", plans[2].Mode.Name)
	}
}

func TestPlanWithoutBuffersStaysBare(t *testing.T) {
	m := &ResourceMap{Segments: []Segment{{Name: "a"}, {Name: "b"}}}
	plans, err := Plan(m, PlanPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Mode.ConfigID != dmtp.ModeBare.ConfigID {
			t.Fatalf("segment %q mode %q", p.Segment.Name, p.Mode.Name)
		}
	}
}
