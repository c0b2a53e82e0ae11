package experiments

import (
	"strconv"
	"time"

	"repro/internal/baseline"
	"repro/internal/daq"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// E2Config parameterises the Fig. 2 baseline-chain characterisation.
type E2Config struct {
	Seed     int64
	Messages int           // DAQ messages from the sensor (default 1000)
	MsgBytes int           // message size (default 7680)
	WANDelay time.Duration // one-way WAN delay (default 15 ms)
	WANLoss  float64       // WAN corruption loss (default 1e-4)
	RateBps  float64       // link rate (default 10 Gbps)
}

func (c E2Config) withDefaults() E2Config {
	if c.Messages == 0 {
		c.Messages = 1000
	}
	if c.MsgBytes == 0 {
		c.MsgBytes = 7680
	}
	if c.WANDelay == 0 {
		c.WANDelay = 15 * time.Millisecond
	}
	if c.WANLoss == 0 {
		c.WANLoss = 1e-4
	}
	if c.RateBps == 0 {
		c.RateBps = 10e9
	}
	return c
}

// E2Results measures today's chain end to end.
type E2Results struct {
	Config E2Config

	// UDP leg (sensor → gateway).
	UDPLost uint64 // datagrams lost in the DAQ net, silently

	// WAN leg (gateway → storage, tuned TCP).
	WANRetransmits uint64
	WANTimeouts    uint64

	// Campus leg (storage → researcher, TCP).
	CampusRetransmits uint64

	// End-to-end.
	DeliveredMessages uint64
	FCT               time.Duration // first emission → last campus delivery
	GoodputBps        float64
	HOLp50, HOLp99    time.Duration // head-of-line blocking at the campus receiver
	HOLMax            time.Duration
}

// E2Fig2Baseline runs today's transport chain of Fig. 2:
//
//	sensor ──UDP── gateway(DTN) ──tuned TCP over WAN── storage ──TCP── campus
//
// measuring the silent DAQ-leg loss, per-leg retransmissions (always from
// that leg's source), end-to-end completion, and head-of-line blocking.
func E2Fig2Baseline(cfg E2Config) E2Results {
	cfg = cfg.withDefaults()
	res := E2Results{Config: cfg}
	nw := netsim.New(cfg.Seed)

	sensorAddr := wire.AddrFrom(10, 20, 0, 1, 1)
	gwAddr := wire.AddrFrom(10, 20, 1, 1, 1)
	storageAddr := wire.AddrFrom(10, 20, 2, 1, 1)
	campusAddr := wire.AddrFrom(10, 20, 3, 1, 1)

	sensor := baseline.NewUDPSender(nw, "sensor", sensorAddr, gwAddr)
	gw := baseline.NewGateway(nw, "gateway", gwAddr, storageAddr, 1, baseline.Tuned())
	storage := baseline.NewSplitProxy(nw, "storage", storageAddr, gwAddr, 1, campusAddr, 2, baseline.Tuned())
	campus := baseline.NewTCPReceiver(nw, "campus", campusAddr, storageAddr, 2)

	nw.Connect(sensor.Node(), gw.Node(), netsim.LinkConfig{
		RateBps: cfg.RateBps, Delay: 10 * time.Microsecond, QueueBytes: 32 << 20})
	nw.Connect(gw.Node(), storage.Node(), netsim.LinkConfig{
		RateBps: cfg.RateBps, Delay: cfg.WANDelay, LossProb: cfg.WANLoss, QueueBytes: 64 << 20})
	nw.Connect(storage.Node(), campus.Node(), netsim.LinkConfig{
		RateBps: cfg.RateBps, Delay: 2 * time.Millisecond, LossProb: cfg.WANLoss, QueueBytes: 32 << 20})

	var lastDelivery time.Duration
	campus.OnMessage = func(m baseline.TCPMessage) {
		res.DeliveredMessages++
		lastDelivery = time.Duration(nw.Now())
	}
	sensor.OnDone = func() {
		// Let the last UDP datagrams land before closing the TCP legs;
		// closing immediately would race frames still in flight.
		nw.Loop().After(5*time.Millisecond, func() {
			gw.Out().OnComplete = func() { storage.Close() }
			gw.Close()
		})
	}

	src := daq.NewGeneric(daq.GenericConfig{
		MessageSize: cfg.MsgBytes,
		Interval:    time.Duration(float64((cfg.MsgBytes+daq.HeaderLen)*8) / (0.8 * cfg.RateBps) * float64(time.Second)),
		Count:       uint64(cfg.Messages),
		Seed:        cfg.Seed,
	})
	sensor.Stream(src)
	nw.Loop().Run()

	res.UDPLost = uint64(cfg.Messages) - gw.Ingested
	res.WANRetransmits = gw.Out().Stats.Retransmits
	res.WANTimeouts = gw.Out().Stats.Timeouts
	res.CampusRetransmits = storage.Out().Stats.Retransmits
	res.FCT = lastDelivery
	if lastDelivery > 0 {
		res.GoodputBps = float64(res.DeliveredMessages) * float64(cfg.MsgBytes+daq.HeaderLen) * 8 / lastDelivery.Seconds()
	}
	res.HOLp50 = time.Duration(campus.HOLHist.Quantile(0.5))
	res.HOLp99 = time.Duration(campus.HOLHist.Quantile(0.99))
	res.HOLMax = time.Duration(campus.HOLHist.Max())
	return res
}

// Table renders the Fig. 2 measurement as the per-leg feature matrix the
// figure draws, annotated with the measured numbers.
func (r E2Results) Table() string {
	t := telemetry.NewTable("segment", "transport", "reliability", "measured")
	t.Row("DAQ net (①→②)", "UDP", "none (silent loss)", fmtU(r.UDPLost)+" datagrams lost")
	t.Row("WAN (②→④)", "tuned TCP", "from-source retransmit", fmtU(r.WANRetransmits)+" retransmits, "+fmtU(r.WANTimeouts)+" RTOs")
	t.Row("campus (④→⑤)", "TCP", "from-storage retransmit", fmtU(r.CampusRetransmits)+" retransmits")
	t.Row("end-to-end", "-", "-", fmtU(r.DeliveredMessages)+" msgs, FCT "+fmtDur(r.FCT).String()+", HOL p99 "+fmtDur(r.HOLp99).String())
	return t.String()
}

func fmtU(v uint64) string { return strconv.FormatUint(v, 10) }
