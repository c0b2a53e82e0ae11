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
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// A1Row is one buffer-placement operating point.
type A1Row struct {
	// BufferPosition is the fraction of the path upstream of the lossy
	// segment's entrance: 0 = buffer at the source (today's TCP
	// behaviour: retransmit from the origin), 0.97 = buffer at the WAN
	// edge (the paper's DTN 1 placement).
	BufferPosition float64
	RecoveryP50    time.Duration
	RecoveryP99    time.Duration
	FCT            time.Duration
	Recovered      uint64
	Lost           uint64
}

// A1BufferPlacement quantifies §5.1's claim that retransmitting from a
// closer buffer shortens recovery and flow-completion time: the same
// 30 ms path and loss rate, with the retransmission buffer at varying
// distances from the receiver.
func A1BufferPlacement(positions []float64, messages int, loss float64, seed int64) []A1Row {
	if len(positions) == 0 {
		positions = []float64{0, 0.5, 0.97}
	}
	const pathDelay = 30 * time.Millisecond
	var rows []A1Row
	for _, pos := range positions {
		d1 := time.Duration(pos * float64(pathDelay)) // source → buffer
		d2 := pathDelay - d1                          // buffer → receiver (lossy)
		if d1 == 0 {
			d1 = time.Microsecond
		}
		if d2 <= 0 {
			d2 = time.Microsecond
		}
		nw := netsim.New(seed)
		sensorAddr := wire.AddrFrom(10, 40, 0, 1, 1)
		bufAddr := wire.AddrFrom(10, 40, 1, 1, 1)
		dstAddr := wire.AddrFrom(10, 40, 2, 1, 1)

		var last time.Duration
		rcv := core.NewReceiver(nw, "dst", dstAddr, core.ReceiverConfig{
			NAKDelay: 200 * time.Microsecond,
			NAKRetry: 2*d2 + 10*time.Millisecond,
			MaxNAKs:  8,
			OnMessage: func(m core.Message) {
				last = time.Duration(nw.Now())
			},
		})
		buf := core.NewBufferNode(nw, "buffer", bufAddr, core.BufferConfig{
			Upgrade:     dmtp.ModeWAN,
			Forward:     dstAddr,
			ForwardPort: 1,
			MaxAge:      time.Second,
			Routes:      map[wire.Addr]int{sensorAddr: 0},
		})
		snd := core.NewSender(nw, "sensor", sensorAddr, core.SenderConfig{
			Experiment: 9, Dst: bufAddr, Mode: dmtp.ModeBare,
		})
		nw.Connect(snd.Node(), buf.Node(), netsim.LinkConfig{RateBps: 10e9, Delay: d1, QueueBytes: 64 << 20})
		nw.Connect(buf.Node(), rcv.Node(), netsim.LinkConfig{RateBps: 10e9, Delay: d2, LossProb: loss, QueueBytes: 64 << 20})

		snd.Stream(daq.NewGeneric(daq.GenericConfig{
			MessageSize: 7680, Interval: 8 * time.Microsecond,
			Count: uint64(messages), Seed: seed,
		}))
		nw.Loop().Run()

		rows = append(rows, A1Row{
			BufferPosition: pos,
			RecoveryP50:    time.Duration(rcv.RecoveryHist.Quantile(0.5)),
			RecoveryP99:    time.Duration(rcv.RecoveryHist.Quantile(0.99)),
			FCT:            last,
			Recovered:      rcv.Stats.Recovered,
			Lost:           rcv.Stats.Lost,
		})
	}
	return rows
}

// A1Table renders the placement sweep.
func A1Table(rows []A1Row) string {
	t := NewTable("buffer position", "recovery p50", "recovery p99", "FCT", "recovered", "lost")
	for _, r := range rows {
		label := "at source (0.0)"
		switch {
		case r.BufferPosition >= 0.9:
			label = "WAN edge / DTN1 (" + trimF(r.BufferPosition) + ")"
		case r.BufferPosition > 0:
			label = "mid-path (" + trimF(r.BufferPosition) + ")"
		}
		t.Row(label, fmtDur(r.RecoveryP50), fmtDur(r.RecoveryP99), fmtDur(r.FCT), r.Recovered, r.Lost)
	}
	return t.String()
}

// A2Results contrasts message-based delivery with bytestream HOL blocking.
type A2Results struct {
	Loss float64
	// TCP: delay between a message being fully received and being
	// deliverable, caused by earlier stream gaps.
	TCPHOLp50, TCPHOLp99, TCPHOLMax time.Duration
	// DMTP: messages deliver on arrival; unaffected (non-lost) messages
	// see zero blocking by construction. We report the latency spread of
	// non-recovered messages as the equivalent number.
	DMTPBlockP99 time.Duration
	// DMTP with opt-in ordered delivery: blocking returns at
	// recovery-RTT scale, isolating ordering (not TCP) as the cause.
	OrderedHOLp99, OrderedHOLMax time.Duration
}

// A2HOLBlocking reproduces §4.1 claim (1): on a lossy path, TCP's ordered
// bytestream delays already-arrived messages behind retransmissions, while
// DMTP's datagram delivery touches only the lost messages themselves.
func A2HOLBlocking(loss float64, messages int, seed int64) A2Results {
	res := A2Results{Loss: loss}

	// TCP leg.
	{
		nw := netsim.New(seed)
		sAddr := wire.AddrFrom(10, 50, 0, 1, 1)
		rAddr := wire.AddrFrom(10, 50, 1, 1, 1)
		snd := baseline.NewTCPSender(nw, "src", sAddr, rAddr, 1, baseline.Tuned())
		rcv := baseline.NewTCPReceiver(nw, "dst", rAddr, sAddr, 1)
		nw.Connect(snd.Node(), rcv.Node(), netsim.LinkConfig{
			RateBps: 10e9, Delay: 15 * time.Millisecond, LossProb: loss, QueueBytes: 64 << 20})
		payload := make([]byte, 7680)
		for i := 0; i < messages; i++ {
			snd.Send(payload)
		}
		snd.Close()
		nw.Loop().Run()
		res.TCPHOLp50 = time.Duration(rcv.HOLHist.Quantile(0.5))
		res.TCPHOLp99 = time.Duration(rcv.HOLHist.Quantile(0.99))
		res.TCPHOLMax = time.Duration(rcv.HOLHist.Max())
	}

	// DMTP legs: same path, same loss. Unordered delivery measures the
	// p99 latency spread of messages that did NOT need recovery — they
	// are untouched by the losses around them. The ordered variant
	// measures how long fully received messages wait behind gaps.
	for _, ordered := range []bool{false, true} {
		nw := netsim.New(seed)
		sAddr := wire.AddrFrom(10, 51, 0, 1, 1)
		bAddr := wire.AddrFrom(10, 51, 1, 1, 1)
		rAddr := wire.AddrFrom(10, 51, 2, 1, 1)
		hist := telemetry.NewHistogram()
		var base time.Duration = -1
		rcv := core.NewReceiver(nw, "dst", rAddr, core.ReceiverConfig{
			Ordered:  ordered,
			NAKRetry: 40 * time.Millisecond,
			OnMessage: func(m core.Message) {
				if m.Recovered || m.Latency < 0 {
					return
				}
				if base < 0 || m.Latency < base {
					base = m.Latency
				}
				hist.ObserveDuration(m.Latency - base)
			},
		})
		buf := core.NewBufferNode(nw, "dtn1", bAddr, core.BufferConfig{
			Upgrade:     dmtp.ModeWAN,
			Forward:     rAddr,
			ForwardPort: 1,
			MaxAge:      time.Second,
			Routes:      map[wire.Addr]int{sAddr: 0},
		})
		snd := core.NewSender(nw, "src", sAddr, core.SenderConfig{
			Experiment: 9, Dst: bAddr, Mode: dmtp.ModeBare,
		})
		nw.Connect(snd.Node(), buf.Node(), netsim.LinkConfig{RateBps: 10e9, Delay: 10 * time.Microsecond})
		nw.Connect(buf.Node(), rcv.Node(), netsim.LinkConfig{
			RateBps: 10e9, Delay: 15 * time.Millisecond, LossProb: loss, QueueBytes: 64 << 20})
		snd.Stream(daq.NewGeneric(daq.GenericConfig{
			MessageSize: 7680, Interval: 8 * time.Microsecond,
			Count: uint64(messages), Seed: seed,
		}))
		nw.Loop().Run()
		if ordered {
			res.OrderedHOLp99 = time.Duration(rcv.OrderedHOL.Quantile(0.99))
			res.OrderedHOLMax = time.Duration(rcv.OrderedHOL.Max())
		} else {
			res.DMTPBlockP99 = time.Duration(hist.Quantile(0.99))
		}
	}
	return res
}

// Table renders the HOL comparison.
func (r A2Results) Table() string {
	t := NewTable("transport", "blocking p50", "blocking p99", "max")
	t.Row("TCP bytestream", fmtDur(r.TCPHOLp50), fmtDur(r.TCPHOLp99), fmtDur(r.TCPHOLMax))
	t.Row("DMTP datagrams", time.Duration(0), fmtDur(r.DMTPBlockP99), "-")
	t.Row("DMTP + ordered delivery", time.Duration(0), fmtDur(r.OrderedHOLp99), fmtDur(r.OrderedHOLMax))
	return t.String()
}

// A4Results measures the capacity-planned coexistence hypothesis (§5.3).
type A4Results struct {
	// Paced DMTP flows sharing a planned link.
	DMTPDrops uint64
	DMTPUtil  float64
	// Unplanned TCP flows on the same link.
	TCPRetransmits uint64
	TCPUtil        float64
}

// A4CapacityPlanning tests the paper's hypothesis that DMTP "does not
// require sophisticated congestion control, since data transfers across
// scientific networks are usually capacity-planned": two paced DMTP flows
// provisioned at 45% of a shared 10 Gbps link each coexist without loss,
// while two greedy TCP flows on the same link oscillate and retransmit.
func A4CapacityPlanning(messages int, seed int64) A4Results {
	var res A4Results
	linkRate := 10e9
	span := func(first, last time.Duration) time.Duration { return last - first }

	// DMTP: two senders paced at 4.5 Gbps each through a shared switch.
	{
		nw := netsim.New(seed)
		dstAddr := wire.AddrFrom(10, 60, 9, 1, 1)
		var first, last time.Duration
		var bytes uint64
		rcv := core.NewReceiver(nw, "dst", dstAddr, core.ReceiverConfig{
			OnMessage: func(m core.Message) {
				if first == 0 {
					first = time.Duration(nw.Now())
				}
				last = time.Duration(nw.Now())
				bytes += uint64(len(m.Payload))
			},
		})
		fwd := p4sim.NewForwarder().Route(dstAddr, 2)
		sw := p4sim.NewSwitch(fwd, 400*time.Nanosecond, fwd)
		swNode := nw.AddNode("shared", wire.Addr{}, sw)
		mode := dmtp.Mode{Name: "paced", ConfigID: 5, Features: wire.FeatSequenced | wire.FeatTimestamped}
		for i := 0; i < 2; i++ {
			addr := wire.AddrFrom(10, 60, 0, byte(i+1), 1)
			snd := core.NewSender(nw, "src"+strconv.Itoa(i), addr, core.SenderConfig{
				Experiment: uint32(i + 1),
				Dst:        dstAddr,
				Mode:       mode,
				RateMbps:   4500,
			})
			nw.Connect(snd.Node(), swNode, netsim.LinkConfig{RateBps: linkRate, Delay: 50 * time.Microsecond, QueueBytes: 16 << 20})
			fwd.Route(addr, len(swNode.Ports)-1)
			snd.Stream(daq.NewGeneric(daq.GenericConfig{
				MessageSize: 7680, Interval: 13 * time.Microsecond, // ≈4.7 Gbps offered
				Count: uint64(messages), Seed: seed + int64(i),
			}))
		}
		nw.Connect(swNode, rcv.Node(), netsim.LinkConfig{RateBps: linkRate, Delay: 50 * time.Microsecond, QueueBytes: 4 << 20})
		nw.Loop().Run()
		res.DMTPDrops = swNode.Ports[2].Stats.DropsQueueFull
		if s := span(first, last); s > 0 {
			res.DMTPUtil = float64(bytes*8) / s.Seconds() / linkRate
		}
	}

	// TCP: two greedy tuned flows into the same bottleneck.
	{
		nw := netsim.New(seed)
		rAddr1 := wire.AddrFrom(10, 61, 9, 1, 1)
		rAddr2 := wire.AddrFrom(10, 61, 9, 2, 1)
		router := netsim.NewRouter()
		rtNode := nw.AddNode("shared", wire.Addr{}, router)
		var first, last time.Duration
		var bytes uint64
		count := func(m baseline.TCPMessage) {
			if first == 0 {
				first = time.Duration(nw.Now())
			}
			last = time.Duration(nw.Now())
			bytes += uint64(len(m.Payload))
		}
		var senders []*baseline.TCPSender
		for i := 0; i < 2; i++ {
			sAddr := wire.AddrFrom(10, 61, 0, byte(i+1), 1)
			rAddr := rAddr1
			if i == 1 {
				rAddr = rAddr2
			}
			snd := baseline.NewTCPSender(nw, "src"+strconv.Itoa(i), sAddr, rAddr, uint16(i+1), baseline.Tuned())
			rcv := baseline.NewTCPReceiver(nw, "dst"+strconv.Itoa(i), rAddr, sAddr, uint16(i+1))
			rcv.OnMessage = count
			nw.Connect(snd.Node(), rtNode, netsim.LinkConfig{RateBps: linkRate, Delay: 50 * time.Microsecond, QueueBytes: 16 << 20})
			router.Route(sAddr, len(rtNode.Ports)-1)
			nw.Connect(rtNode, rcv.Node(), netsim.LinkConfig{RateBps: linkRate / 2, Delay: 50 * time.Microsecond, QueueBytes: 4 << 20})
			router.Route(rAddr, len(rtNode.Ports)-1)
			senders = append(senders, snd)
		}
		payload := make([]byte, 7680)
		for i := 0; i < messages; i++ {
			senders[0].Send(payload)
			senders[1].Send(payload)
		}
		senders[0].Close()
		senders[1].Close()
		nw.Loop().Run()
		res.TCPRetransmits = senders[0].Stats.Retransmits + senders[1].Stats.Retransmits
		if s := span(first, last); s > 0 {
			res.TCPUtil = float64(bytes*8) / s.Seconds() / linkRate
		}
	}
	return res
}

// Table renders the coexistence comparison.
func (r A4Results) Table() string {
	t := NewTable("scheme", "drops/retransmits", "delivered utilization")
	t.Row("DMTP paced @45%×2", r.DMTPDrops, r.DMTPUtil)
	t.Row("TCP greedy ×2", r.TCPRetransmits, r.TCPUtil)
	return t.String()
}
