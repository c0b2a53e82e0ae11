// Package pilot reproduces the paper's pilot study (§5.4, Fig. 4):
//
//	detector ──DAQ net── DTN 1 ──── Tofino2 ──WAN── DTN 2
//	(LArTPC)            (buffer)   (age/deadline)  (timeliness check)
//
// with the three modes of the pilot design: (1) unreliable transport from
// the sensor to DTN 1 (mode 0), (2) age-sensitive and recoverable-loss
// transport between DTN 1 and DTN 2 (the WAN mode, installed at DTN 1 and
// age-tracked at the Tofino2 stand-in), and (3) a timeliness check at the
// destination. The physical 100 GbE testbed is replaced by the simulator at
// the same link rate; ICEBERG traffic is replaced by the synthetic LArTPC
// source (see DESIGN.md "Substitutions").
package pilot

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/daq"
	"repro/internal/netsim"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

// Config parameterises a pilot run.
type Config struct {
	// Seed drives all randomness (loss, workload).
	Seed int64
	// Messages bounds the detector stream; zero means 2000.
	Messages uint64
	// MessageBytes sizes synthetic messages; zero means 7680 (a WIB
	// frame's ADC block). Ignored when Waveforms is set.
	MessageBytes int
	// Waveforms uses the full LArTPC waveform synthesiser instead of the
	// shape-only generator (slower, but carries real ADC payloads).
	Waveforms bool
	// Supernova merges a supernova-burst stream into the detector readout.
	Supernova bool
	// LinkRateBps is the line rate of every link; zero means 100 Gbps.
	LinkRateBps float64
	// SourceRateBps is the detector emission rate; zero means 80% of the
	// link rate.
	SourceRateBps float64
	// WANDelay is the one-way WAN propagation delay; zero means 15 ms.
	WANDelay time.Duration
	// WANLoss is the WAN's random loss probability.
	WANLoss float64
	// MaxAge is the age budget; zero means 4× the WAN RTT.
	MaxAge time.Duration
	// DeadlineBudget is the delivery deadline; zero means 10× the WAN RTT.
	DeadlineBudget time.Duration
	// NAKRetry overrides the receiver's retransmission-request timeout;
	// zero derives it from the buffer RTT.
	NAKRetry time.Duration
	// Encrypt exercises the encrypted mode (Req 5).
	Encrypt bool
	// AckInterval enables cumulative ACKs toward the buffer.
	AckInterval time.Duration
	// CapacityBytes overrides the DTN 1 retransmission-buffer size; zero
	// means 1 GiB (≥ rate × recovery-RTT at 100 GbE).
	CapacityBytes int
}

func (c Config) withDefaults() Config {
	if c.Messages == 0 {
		c.Messages = 2000
	}
	if c.MessageBytes == 0 {
		c.MessageBytes = 7680
	}
	if c.LinkRateBps == 0 {
		c.LinkRateBps = 100e9
	}
	if c.SourceRateBps == 0 {
		c.SourceRateBps = 0.8 * c.LinkRateBps
	}
	if c.WANDelay == 0 {
		c.WANDelay = 15 * time.Millisecond
	}
	if c.MaxAge == 0 {
		c.MaxAge = 4 * 2 * c.WANDelay
	}
	if c.DeadlineBudget == 0 {
		c.DeadlineBudget = 10 * 2 * c.WANDelay
	}
	if c.NAKRetry == 0 {
		c.NAKRetry = 2*c.WANDelay + 5*time.Millisecond
	}
	if c.CapacityBytes == 0 {
		c.CapacityBytes = 1 << 30
	}
	return c
}

// Results summarises a pilot run.
type Results struct {
	Config Config

	Sent       uint64
	Delivered  uint64 // messages handed to the application (incl. recovered)
	Distinct   uint64 // distinct sequence numbers delivered
	Recovered  uint64
	Lost       uint64
	Duplicates uint64
	Aged       uint64
	Late       uint64

	NAKs        uint64 // NAK packets served by DTN 1
	Retransmits uint64 // packets retransmitted by DTN 1
	BufferPeak  int

	// Elapsed is virtual time from first emission to quiescence.
	Elapsed time.Duration
	// GoodputBps is delivered payload throughput over the delivery span.
	GoodputBps float64
	// LinkUtilization is goodput over the configured link rate.
	LinkUtilization float64
	// LatencyP50/P99 are origin→delivery percentiles.
	LatencyP50, LatencyP99 time.Duration
	// RecoveryP50 is the median gap-detection→recovery latency.
	RecoveryP50 time.Duration
	// ModeTransitions counts header upgrades at DTN 1.
	ModeTransitions uint64
	// PlanSegments echoes the planner's per-segment modes.
	PlanSegments []string
}

// Addresses used by the pilot topology.
var (
	SensorAddr = wire.AddrFrom(10, 10, 0, 1, 4000)
	DTN1Addr   = wire.AddrFrom(10, 10, 1, 1, 7000)
	DTN2Addr   = wire.AddrFrom(10, 10, 2, 1, 7000)
)

// Run executes the pilot and returns its measurements.
func Run(cfg Config) (Results, error) {
	cfg = cfg.withDefaults()
	res := Results{Config: cfg}

	// Build the resource map and let the planner derive the 3-mode setup,
	// exactly as §5.4's "simple 3-mode setup that pre-supposes knowledge
	// of in-network resources at system start".
	rmap := &core.ResourceMap{
		Segments: []core.Segment{
			{Name: "daq", RTT: 20 * time.Microsecond, RateBps: cfg.LinkRateBps},
			{Name: "wan", RTT: 2 * cfg.WANDelay, RateBps: cfg.LinkRateBps, LossProb: cfg.WANLoss, Shared: true},
		},
		Resources: []core.Resource{
			{Name: "dtn1", Addr: DTN1Addr, Kind: core.KindBuffer, Segment: 0, CapacityBytes: cfg.CapacityBytes},
			{Name: "tofino2", Addr: wire.Addr{}, Kind: core.KindModeChanger, Segment: 1},
		},
	}
	plans, err := core.Plan(rmap, core.PlanPolicy{DeadlineBudget: cfg.DeadlineBudget})
	if err != nil {
		return res, fmt.Errorf("pilot: planning failed: %w", err)
	}
	for _, p := range plans {
		res.PlanSegments = append(res.PlanSegments, fmt.Sprintf("%s:%s", p.Segment.Name, p.Mode.Name))
	}
	wanMode := plans[len(plans)-1].Mode
	if cfg.Encrypt {
		wanMode.Features |= wire.FeatEncrypted
	}

	nw := netsim.New(cfg.Seed)
	var cipher core.Cipher
	if cfg.Encrypt {
		cipher = core.NewXORKeystream(0x5CA1AB1E0DDBA11)
	}

	var firstDelivery, lastDelivery time.Duration
	type msgKey struct {
		exp wire.ExperimentID
		seq uint64
	}
	distinct := make(map[msgKey]bool)
	receiver := core.NewReceiver(nw, "dtn2", DTN2Addr, core.ReceiverConfig{
		NAKDelay:    200 * time.Microsecond,
		NAKRetry:    cfg.NAKRetry,
		MaxNAKs:     8,
		AckInterval: cfg.AckInterval,
		Cipher:      cipher,
		OnMessage: func(m core.Message) {
			now := time.Duration(nw.Now())
			if firstDelivery == 0 {
				firstDelivery = now
			}
			lastDelivery = now
			distinct[msgKey{m.Experiment, m.Seq}] = true
		},
	})

	dtn1 := core.NewBufferNode(nw, "dtn1", DTN1Addr, core.BufferConfig{
		UpgradeFrom:      core.ModeBare.ConfigID,
		Upgrade:          wanMode,
		Forward:          DTN2Addr,
		ForwardPort:      1,
		MaxAge:           cfg.MaxAge,
		DeadlineBudget:   cfg.DeadlineBudget,
		DeadlineNotify:   SensorAddr,
		BackPressureSink: SensorAddr,
		// The buffer must cover rate × recovery-RTT (≈80 Gbps × 30 ms ≈
		// 300 MB at 100 GbE): an undersized buffer evicts exactly the
		// packets a receiver is mid-recovery on, turning transient loss
		// permanent (ablation A6 sweeps this). 1 GiB is modest for a
		// production DTN.
		CapacityBytes: cfg.CapacityBytes,
		Cipher:        cipher,
		Routes:        map[wire.Addr]int{SensorAddr: 0},
	})

	fwd := p4sim.NewForwarder().
		Route(DTN2Addr, 1).
		Route(DTN1Addr, 0).
		Route(SensorAddr, 0)
	sw := p4sim.NewSwitch(fwd, 400*time.Nanosecond,
		&p4sim.AgeTracker{PortDeltaMicros: map[int]uint32{p4sim.WildcardPort: 0}},
		&p4sim.DeadlineMarker{Reporter: wire.AddrFrom(10, 10, 9, 9, 0), SuppressWindow: 10 * time.Millisecond},
		p4sim.ExperimentCounter{},
		fwd,
	)
	swNode := nw.AddNode("tofino2", wire.Addr{}, sw)

	sender := core.NewSender(nw, "sensor", SensorAddr, core.SenderConfig{
		Experiment: 0xD0ED, // DUNE-ish tag
		Dst:        DTN1Addr,
		Mode:       core.ModeBare,
	})

	nw.Connect(sender.Node(), dtn1.Node(), netsim.LinkConfig{
		RateBps: cfg.LinkRateBps, Delay: 10 * time.Microsecond, QueueBytes: 32 << 20})
	nw.Connect(dtn1.Node(), swNode, netsim.LinkConfig{
		RateBps: cfg.LinkRateBps, Delay: 10 * time.Microsecond, QueueBytes: 32 << 20})
	nw.ConnectAsym(swNode, receiver.Node(),
		netsim.LinkConfig{RateBps: cfg.LinkRateBps, Delay: cfg.WANDelay, LossProb: cfg.WANLoss, QueueBytes: 64 << 20},
		netsim.LinkConfig{RateBps: cfg.LinkRateBps, Delay: cfg.WANDelay, QueueBytes: 32 << 20})

	src := buildSource(cfg)
	sender.Stream(src)

	peak := 0
	probe := func() {}
	probe = func() {
		if b := dtn1.BufferedBytes(); b > peak {
			peak = b
		}
		if !sender.Done || receiver.OutstandingGaps() > 0 {
			nw.Loop().After(time.Millisecond, probe)
		}
	}
	nw.Loop().After(time.Millisecond, probe)

	nw.Loop().Run()

	res.Sent = sender.Stats.Sent
	st := receiver.Stats
	res.Delivered = st.Delivered
	res.Distinct = uint64(len(distinct))
	res.Recovered = st.Recovered
	res.Lost = st.Lost
	res.Duplicates = st.Duplicates
	res.Aged = st.Aged
	res.Late = st.Late
	res.NAKs = dtn1.Stats().NAKs
	res.Retransmits = dtn1.Stats().Retransmits
	res.BufferPeak = peak
	res.ModeTransitions = dtn1.Stats().Upgraded
	res.Elapsed = lastDelivery
	if span := lastDelivery - firstDelivery; span > 0 {
		res.GoodputBps = float64(receiver.DeliveredBytes*8) / span.Seconds()
		res.LinkUtilization = res.GoodputBps / cfg.LinkRateBps
	}
	res.LatencyP50 = time.Duration(receiver.LatencyHist.Quantile(0.5))
	res.LatencyP99 = time.Duration(receiver.LatencyHist.Quantile(0.99))
	res.RecoveryP50 = time.Duration(receiver.RecoveryHist.Quantile(0.5))
	return res, nil
}

func buildSource(cfg Config) daq.Source {
	interval := time.Duration(float64(cfg.MessageBytes+daq.HeaderLen) * 8 / cfg.SourceRateBps * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	var src daq.Source
	if cfg.Waveforms {
		lcfg := daq.DefaultLArTPC(0, cfg.Messages, cfg.Seed)
		src = daq.NewLArTPC(lcfg)
	} else {
		src = daq.NewGeneric(daq.GenericConfig{
			Detector:    daq.DetLArTPC,
			MessageSize: cfg.MessageBytes,
			Interval:    interval,
			Count:       cfg.Messages,
			Seed:        cfg.Seed,
		})
	}
	if cfg.Supernova {
		sn := daq.DefaultSupernova(cfg.Seed + 1)
		sn.Slice = 1
		src = daq.NewMerge(src, daq.NewSupernova(sn))
	}
	return src
}
