package experiments

import (
	"strconv"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/daq"
	"repro/internal/dmtp"
	"repro/internal/netsim"
	"repro/internal/p4sim"
	"repro/internal/pilot"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// E3LossRow compares DMTP against the tuned-TCP chain at one WAN loss rate.
type E3LossRow struct {
	Loss float64

	DMTPFCT         time.Duration
	DMTPRecoveryP50 time.Duration
	DMTPLost        uint64

	TCPFCT         time.Duration
	TCPRetransmits uint64
	TCPTimeouts    uint64

	// Speedup is TCP FCT over DMTP FCT (>1 means DMTP wins).
	Speedup float64
}

// E3LossSweep runs the Fig. 3 headline comparison: the same workload over
// the same lossy WAN, carried by (a) DMTP with hop-by-hop recovery from
// DTN 1 and (b) today's tuned split-TCP chain. The shape the paper argues
// for: DMTP's flow-completion time degrades far more slowly with loss,
// because recovery is a NAK round trip to the nearest buffer instead of
// sender-side congestion-control collapse.
func E3LossSweep(losses []float64, messages int, seed int64) []E3LossRow {
	if len(losses) == 0 {
		losses = []float64{0, 1e-4, 1e-3, 1e-2}
	}
	var rows []E3LossRow
	for _, loss := range losses {
		res, err := pilot.Run(pilot.Config{
			Seed:     seed,
			Messages: uint64(messages),
			WANLoss:  loss,
			// Match the baseline's 10 Gbps so the comparison is fair.
			LinkRateBps: 10e9,
		})
		if err != nil {
			panic(err) // static config; cannot fail
		}
		base := E2Fig2Baseline(E2Config{
			Seed:     seed,
			Messages: messages,
			WANLoss:  loss,
			RateBps:  10e9,
		})
		row := E3LossRow{
			Loss:            loss,
			DMTPFCT:         res.Elapsed,
			DMTPRecoveryP50: res.RecoveryP50,
			DMTPLost:        res.Lost,
			TCPFCT:          base.FCT,
			TCPRetransmits:  base.WANRetransmits + base.CampusRetransmits,
			TCPTimeouts:     base.WANTimeouts,
		}
		if res.Elapsed > 0 {
			row.Speedup = float64(base.FCT) / float64(res.Elapsed)
		}
		rows = append(rows, row)
	}
	return rows
}

// E3LossTable renders the sweep.
func E3LossTable(rows []E3LossRow) string {
	t := NewTable("WAN loss", "DMTP FCT", "DMTP rec p50", "TCP FCT", "TCP retx", "TCP RTOs", "TCP/DMTP FCT")
	for _, r := range rows {
		t.Row(r.Loss, fmtDur(r.DMTPFCT), fmtDur(r.DMTPRecoveryP50), fmtDur(r.TCPFCT), r.TCPRetransmits, r.TCPTimeouts, r.Speedup)
	}
	return t.String()
}

// E3AlertResults measures in-network alert distribution (Fig. 3 ⑥ and the
// DUNE→Vera Rubin multi-domain alert of Req 10).
type E3AlertResults struct {
	Alerts      int
	Researchers int
	// DMTP: alerts duplicated at the WAN border toward every researcher.
	DMTPp50, DMTPp99 time.Duration
	// Baseline: alerts land at storage over TCP and are re-sent from
	// there on a second TCP leg.
	BaseP50, BaseP99 time.Duration
}

// E3AlertFanout compares alert-distribution latency: DMTP duplicates the
// alert stream at the WAN border switch toward every subscribed
// researcher; today's chain first terminates at the storage site and
// re-distributes from there (paper §4.1: termination at ② is "unsuitable
// for rapid inter-instrument coordination").
func E3AlertFanout(alerts int, seed int64) E3AlertResults {
	const researchers = 3
	res := E3AlertResults{Alerts: alerts, Researchers: researchers}
	// Geometry of the multi-domain alert: every researcher site is one
	// direct WAN crossing from the instrument's border switch, while the
	// storage facility that today's chain terminates at lies off that
	// path — re-distribution from storage pays a detour.
	wanDelay := 15 * time.Millisecond
	detourDelay := 10 * time.Millisecond
	alertSize := 8 << 10
	interval := 500 * time.Microsecond

	// --- DMTP: source → border switch (duplicator) → researchers.
	{
		nw := netsim.New(seed)
		srcAddr := wire.AddrFrom(10, 30, 0, 1, 1)
		hist := telemetry.NewHistogram()

		fwd := p4sim.NewForwarder()
		dup := p4sim.NewDuplicator()
		sw := p4sim.NewSwitch(fwd, 400*time.Nanosecond, dup, fwd)
		swNode := nw.AddNode("border", wire.Addr{}, sw)

		var researcherAddrs []wire.Addr
		for i := 0; i < researchers; i++ {
			addr := wire.AddrFrom(10, 30, 1, byte(i+1), 1)
			researcherAddrs = append(researcherAddrs, addr)
			rcv := core.NewReceiver(nw, "researcher"+strconv.Itoa(i), addr, core.ReceiverConfig{
				OnMessage: func(m core.Message) {
					if m.Latency >= 0 {
						hist.ObserveDuration(m.Latency)
					}
				},
			})
			nw.Connect(swNode, rcv.Node(), netsim.LinkConfig{RateBps: 10e9, Delay: wanDelay})
			fwd.Route(addr, len(swNode.Ports)-1)
		}
		// Duplicate toward researchers 1..N-1; the primary copy follows
		// the route to researcher 0.
		for _, addr := range researcherAddrs[1:] {
			dup.Group(7, p4sim.Copy{Port: -1, Dst: addr})
		}

		sender := core.NewSender(nw, "dune", srcAddr, core.SenderConfig{
			Experiment: 1,
			Dst:        researcherAddrs[0],
			Mode:       dmtp.ModeAlert,
			DupGroup:   7,
			DupScope:   1,
		})
		nw.Connect(sender.Node(), swNode, netsim.LinkConfig{RateBps: 10e9, Delay: 100 * time.Microsecond})
		fwd.Route(srcAddr, len(swNode.Ports)-1)

		sender.Stream(daq.NewGeneric(daq.GenericConfig{
			MessageSize: alertSize,
			Interval:    interval,
			Count:       uint64(alerts),
			Seed:        seed,
			Flags:       daq.FlagAlert,
		}))
		nw.Loop().Run()
		res.DMTPp50 = time.Duration(hist.Quantile(0.5))
		res.DMTPp99 = time.Duration(hist.Quantile(0.99))
	}

	// --- Baseline: source ──TCP over WAN── storage ──TCP── researcher.
	{
		nw := netsim.New(seed)
		srcAddr := wire.AddrFrom(10, 31, 0, 1, 1)
		storageAddr := wire.AddrFrom(10, 31, 1, 1, 1)
		campusAddr := wire.AddrFrom(10, 31, 2, 1, 1)
		hist := telemetry.NewHistogram()

		snd := baseline.NewTCPSender(nw, "dune", srcAddr, storageAddr, 1, baseline.Tuned())
		storage := baseline.NewSplitProxy(nw, "storage", storageAddr, srcAddr, 1, campusAddr, 2, baseline.Tuned())
		rcv := baseline.NewTCPReceiver(nw, "researcher", campusAddr, storageAddr, 2)
		nw.Connect(snd.Node(), storage.Node(), netsim.LinkConfig{RateBps: 10e9, Delay: wanDelay})
		nw.Connect(storage.Node(), rcv.Node(), netsim.LinkConfig{RateBps: 10e9, Delay: detourDelay})

		rcv.OnMessage = func(m baseline.TCPMessage) {
			var h daq.Header
			if _, err := h.DecodeFromBytes(m.Payload); err == nil {
				hist.Observe(int64(nw.Now().Nanos() - h.TimestampNs))
			}
		}

		src := daq.NewGeneric(daq.GenericConfig{
			MessageSize: alertSize,
			Interval:    interval,
			Count:       uint64(alerts),
			Seed:        seed,
			Flags:       daq.FlagAlert,
		})
		var emit func()
		emit = func() {
			rec, ok := src.Next()
			if !ok {
				snd.OnComplete = func() { storage.Close() }
				snd.Close()
				return
			}
			nw.Loop().At(sim.Time(rec.At), func() {
				snd.Send(rec.Data)
				emit()
			})
		}
		emit()
		nw.Loop().Run()
		res.BaseP50 = time.Duration(hist.Quantile(0.5))
		res.BaseP99 = time.Duration(hist.Quantile(0.99))
	}
	return res
}

// Table renders the alert-fanout comparison.
func (r E3AlertResults) Table() string {
	t := NewTable("distribution", "alert latency p50", "p99")
	t.Row("DMTP in-network duplication", fmtDur(r.DMTPp50), fmtDur(r.DMTPp99))
	t.Row("TCP store-and-forward", fmtDur(r.BaseP50), fmtDur(r.BaseP99))
	return t.String()
}

// E3BackPressureResults measures the back-pressure reaction (Fig. 3 ⑤).
type E3BackPressureResults struct {
	WithSignals    uint64 // drops at the bottleneck with back-pressure on
	WithoutSignals uint64 // drops with back-pressure off
	SignalsSent    uint64
}

// E3BackPressure overdrives a 1 Gbps bottleneck from a 10 Gbps source and
// measures queue-full drops with and without the in-network back-pressure
// program signalling the sender to pace down.
func E3BackPressure(messages int, seed int64) E3BackPressureResults {
	run := func(enable bool) (drops, signals uint64) {
		nw := netsim.New(seed)
		srcAddr := wire.AddrFrom(10, 32, 0, 1, 1)
		dstAddr := wire.AddrFrom(10, 32, 1, 1, 1)

		rcv := core.NewReceiver(nw, "dst", dstAddr, core.ReceiverConfig{})
		fwd := p4sim.NewForwarder().Route(dstAddr, 1).Route(srcAddr, 0)
		var bp *p4sim.BackPressureMonitor
		stages := []p4sim.Stage{fwd}
		if enable {
			bp = &p4sim.BackPressureMonitor{
				HighWater:      32,
				LowWater:       4,
				RateHintMbps:   800,
				Reporter:       wire.AddrFrom(10, 32, 9, 9, 1),
				SuppressWindow: time.Millisecond,
			}
			stages = append(stages, bp) // after the forwarder: egress port known
		}
		sw := p4sim.NewSwitch(fwd, 400*time.Nanosecond, stages...)
		swNode := nw.AddNode("bottleneck", wire.Addr{}, sw)

		mode := dmtp.Mode{Name: "bp", ConfigID: 4,
			Features: wire.FeatSequenced | wire.FeatBackPressure | wire.FeatTimestamped}
		snd := core.NewSender(nw, "src", srcAddr, core.SenderConfig{
			Experiment:      5,
			Dst:             dstAddr,
			Mode:            mode,
			RecoverInterval: 5 * time.Millisecond,
		})

		nw.Connect(snd.Node(), swNode, netsim.LinkConfig{
			RateBps: 10e9, Delay: 50 * time.Microsecond, QueueBytes: 64 << 20})
		// Bottleneck: 1 Gbps with a shallow queue.
		nw.Connect(swNode, rcv.Node(), netsim.LinkConfig{
			RateBps: 1e9, Delay: 50 * time.Microsecond, QueueBytes: 512 << 10})

		snd.Stream(daq.NewGeneric(daq.GenericConfig{
			MessageSize: 8 << 10,
			Interval:    8 * time.Microsecond, // ≈8 Gbps offered into 1 Gbps
			Count:       uint64(messages),
			Seed:        seed,
		}))
		nw.Loop().Run()
		drops = swNode.Ports[1].Stats.DropsQueueFull + swNode.Ports[1].Stats.DropsAgedEvicted
		if bp != nil {
			signals = bp.Signalled
		}
		return drops, signals
	}
	var res E3BackPressureResults
	res.WithoutSignals, _ = run(false)
	res.WithSignals, res.SignalsSent = run(true)
	return res
}

// Table renders the back-pressure comparison.
func (r E3BackPressureResults) Table() string {
	t := NewTable("back-pressure", "bottleneck drops", "signals")
	t.Row("off (today)", r.WithoutSignals, 0)
	t.Row("on (multi-modal)", r.WithSignals, r.SignalsSent)
	return t.String()
}
