package core

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// ResourceKind classifies an in-network programmable resource.
type ResourceKind uint8

// Resource kinds.
const (
	// KindBuffer is a retransmission buffer (FPGA NIC or DTN store).
	KindBuffer ResourceKind = iota + 1
	// KindModeChanger is a programmable element that can rewrite modes.
	KindModeChanger
	// KindDuplicator can clone streams toward distribution groups.
	KindDuplicator
	// KindTelemetry exports per-experiment counters.
	KindTelemetry
)

// String names the resource kind ("buffer", "mode-changer", …).
func (k ResourceKind) String() string {
	switch k {
	case KindBuffer:
		return "buffer"
	case KindModeChanger:
		return "mode-changer"
	case KindDuplicator:
		return "duplicator"
	case KindTelemetry:
		return "telemetry"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Segment describes one network segment a DAQ stream crosses: the DAQ
// Ethernet, a WAN, a facility fabric, a campus network. The properties are
// what operators capacity-plan and therefore can publish (paper §4.2: the
// segment properties "are not necessarily abstracted from communicating
// peers or other network operators").
type Segment struct {
	Name string
	// RTT is the segment round-trip time.
	RTT time.Duration
	// RateBps is the provisioned rate.
	RateBps float64
	// LossProb is the expected residual loss (corruption) probability.
	LossProb float64
	// Shared marks segments carrying non-DAQ traffic (the WAN, campus).
	Shared bool
}

// Resource is one entry in the shared resource map: a programmable element
// and what it can do (paper §6: "This map is shared between network
// operators … to describe their programmable infrastructure and its
// capabilities").
type Resource struct {
	Name string
	Addr wire.Addr
	Kind ResourceKind
	// Segment indexes the segment at whose downstream edge the resource
	// sits (resources between segment i and i+1 carry index i).
	Segment int
	// CapacityBytes sizes buffers.
	CapacityBytes int
}

// ResourceMap is the ordered path description: the segments a stream
// crosses, source to destination, and the programmable resources on it.
type ResourceMap struct {
	Segments  []Segment
	Resources []Resource
}

// Validate checks internal consistency.
func (m *ResourceMap) Validate() error {
	if len(m.Segments) == 0 {
		return fmt.Errorf("core: resource map has no segments")
	}
	for _, r := range m.Resources {
		if r.Segment < 0 || r.Segment >= len(m.Segments) {
			return fmt.Errorf("core: resource %q references segment %d of %d", r.Name, r.Segment, len(m.Segments))
		}
		if r.Kind == 0 {
			return fmt.Errorf("core: resource %q has no kind", r.Name)
		}
	}
	return nil
}

// NearestBuffer returns the buffer resource closest upstream of (i.e. with
// the greatest segment index not exceeding) segment seg.
func (m *ResourceMap) NearestBuffer(seg int) (Resource, bool) {
	best := Resource{Segment: -1}
	for _, r := range m.Resources {
		if r.Kind == KindBuffer && r.Segment <= seg && r.Segment > best.Segment {
			best = r
		}
	}
	return best, best.Segment >= 0
}

// ResourcesIn lists resources sitting at segment seg.
func (m *ResourceMap) ResourcesIn(seg int) []Resource {
	var out []Resource
	for _, r := range m.Resources {
		if r.Segment == seg {
			out = append(out, r)
		}
	}
	return out
}

// SegmentPlan is the planned transport configuration for one segment.
type SegmentPlan struct {
	Segment Segment
	// Mode the stream should carry across this segment.
	Mode Mode
	// Buffer is the retransmission source receivers on this segment
	// should NAK (zero when the mode is not reliable).
	Buffer wire.Addr
	// MaxAge and DeadlineBudget configure the age/timeliness features.
	MaxAge         time.Duration
	DeadlineBudget time.Duration
}

// PlanPolicy tunes the planner.
type PlanPolicy struct {
	// AgeBudgetFactor multiplies the accumulated path RTT to derive the
	// age budget; 4 is the pilot default.
	AgeBudgetFactor int
	// DeadlineBudget is the end-to-end delivery budget; zero derives one
	// from the path RTT sum.
	DeadlineBudget time.Duration
}

// Plan derives per-segment modes from the resource map, mirroring the pilot
// study's 3-mode setup (§5.4) generalised to any path: segments with an
// upstream buffer run the recoverable WAN mode, the final segment runs the
// delivery mode, and buffer-less leading segments (the DAQ network, where
// there is no congestion and no retransmission) run bare.
func Plan(m *ResourceMap, pol PlanPolicy) ([]SegmentPlan, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if pol.AgeBudgetFactor == 0 {
		pol.AgeBudgetFactor = 4
	}
	var pathRTT time.Duration
	for _, s := range m.Segments {
		pathRTT += s.RTT
	}
	deadline := pol.DeadlineBudget
	if deadline == 0 {
		deadline = time.Duration(pol.AgeBudgetFactor) * pathRTT
	}
	plans := make([]SegmentPlan, len(m.Segments))
	for i, seg := range m.Segments {
		p := SegmentPlan{Segment: seg, Mode: ModeBare}
		// A segment is recoverable when a buffer sits at or upstream of
		// its entrance (strictly before this segment).
		if buf, ok := m.NearestBuffer(i - 1); ok {
			p.Mode = ModeWAN
			p.Buffer = buf.Addr
			p.MaxAge = time.Duration(pol.AgeBudgetFactor) * pathRTT
			p.DeadlineBudget = deadline
		}
		// The final segment downgrades to the delivery mode (reliability
		// pointer stripped, timeliness checked at the destination) only
		// when loss recovery already completed on an earlier segment —
		// i.e. the previous segment was itself recoverable. In a
		// two-segment pilot the WAN is the last segment and must keep
		// its retransmission pointer.
		if i == len(m.Segments)-1 && i >= 2 &&
			p.Mode.ConfigID == ModeWAN.ConfigID &&
			plans[i-1].Mode.ConfigID == ModeWAN.ConfigID {
			p.Mode = ModeDeliver
		}
		plans[i] = p
	}
	return plans, nil
}
