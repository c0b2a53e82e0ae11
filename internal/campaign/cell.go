package campaign

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dmtp"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/p4sim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Cell timing. The steady interval is a few packet times at the campaign
// message size, so recovery round trips overlap live traffic.
const (
	cellInterval = 250 * time.Microsecond
	cellMsgSize  = 1024
)

// passMode is the storm workload's pass-through mode: a config the relay
// does not upgrade, carrying only an origin timestamp. Its packets cross
// the relay unreshaped and arrive unsequenced — the "mixed-config" part
// of the reshape storm.
var passMode = dmtp.Mode{
	Name:     "pass",
	ConfigID: 2,
	Features: wire.FeatTimestamped,
}

// faultSpec builds the cell's fault plan and crash schedule. n is the
// steady workload's message count; egress indices and the crash instant
// scale with it. The returned crashAt is zero when the plan has no crash.
func faultSpec(fault string, seed int64, n int) (spec faults.Spec, crashAt time.Duration) {
	spec.Seed = seed
	mid := uint64(n / 2)
	switch fault {
	case "clean":
	case "gilbert":
		spec.BurstLoss = 0.08
		spec.MeanBurstLen = 3
	case "reorder":
		spec.ReorderProb = 0.15
		spec.ReorderDelay = 300 * time.Microsecond
	case "dup":
		spec.DupProb = 0.12
	case "corrupt":
		spec.CorruptProb = 0.08
	case "flap":
		spec.DropWindows = []faults.IndexWindow{{From: uint64(n / 4), To: uint64(n/4 + n/8)}}
	case "crash":
		// One warm loss (recovered before the crash) and one loss whose
		// first NAK meets the cold post-crash stash (the write-off path):
		// the crash fires between egress index mid's drop and its NAK.
		spec.DropPackets = []uint64{3, mid}
		crashAt = time.Duration(mid)*cellInterval + cellInterval/2
	case "chaos":
		spec.BurstLoss = 0.05
		spec.ReorderProb = 0.05
		spec.ReorderDelay = 300 * time.Microsecond
		spec.DupProb = 0.05
		crashAt = time.Duration(mid)*cellInterval + cellInterval/2
	}
	return spec, crashAt
}

// senderSpec is one scheduled emission series.
type senderSpec struct {
	name  string
	addr  wire.Addr
	exp   uint32
	mode  dmtp.Mode
	slice uint8
	count int
	start time.Duration
	every time.Duration
	size  int
}

// workloadSpecs derives the cell's sender series: the workload's base
// series, plus — on the fanin topology — three extra steady flows from
// distinct sources, so every fanin cell pushes at least four concurrent
// experiments through the sharded relay.
func workloadSpecs(topology, workload string, n int) []senderSpec {
	specs := baseWorkloadSpecs(workload, n)
	if topology == "fanin" {
		for i := 0; i < 3; i++ {
			specs = append(specs, senderSpec{
				name: fmt.Sprintf("fan%d", i),
				addr: wire.AddrFrom(10, 0, 0, byte(10+i), 4000),
				exp:  uint32(404 + 101*i), mode: dmtp.ModeBare,
				count: n,
				start: cellInterval + time.Duration(i+1)*(cellInterval/4),
				every: cellInterval,
				size:  512,
			})
		}
	}
	return specs
}

// baseWorkloadSpecs derives the workload's own sender series.
func baseWorkloadSpecs(workload string, n int) []senderSpec {
	steady := senderSpec{
		name: "sensorA", addr: wire.AddrFrom(10, 0, 0, 1, 4000),
		exp: 101, mode: dmtp.ModeBare,
		count: n, start: cellInterval, every: cellInterval, size: cellMsgSize,
	}
	switch workload {
	case "steady":
		return []senderSpec{steady}
	case "burst":
		// A supernova-style burst on slice 1 of the same stream, opening
		// mid-beam-run at triple the steady rate.
		burst := steady
		burst.slice = 1
		burst.count = n / 2
		burst.start = time.Duration(n/4) * cellInterval
		burst.every = cellInterval / 3
		burst.size = 512
		return []senderSpec{steady, burst}
	case "storm":
		// Three concurrent streams: two bare streams reshaped at the
		// relay plus a pass-through config the relay leaves untouched.
		b := senderSpec{
			name: "sensorB", addr: wire.AddrFrom(10, 0, 0, 2, 4000),
			exp: 202, mode: dmtp.ModeBare,
			count: 2 * n / 3, start: cellInterval * 3 / 2, every: cellInterval * 3 / 2, size: 768,
		}
		c := senderSpec{
			name: "sensorC", addr: wire.AddrFrom(10, 0, 0, 3, 4000),
			exp: 303, mode: passMode,
			count: n / 2, start: cellInterval * 2, every: cellInterval * 2, size: 256,
		}
		return []senderSpec{steady, b, c}
	}
	return nil
}

// cellEnv is everything the oracles inspect after a cell run.
type cellEnv struct {
	nw       *netsim.Network
	recv     *core.Receiver
	buffers  []*core.BufferNode        // every stash-bearing node
	bufRecs  []*metrics.FlightRecorder // parallel to buffers
	upgrader *core.BufferNode          // the node assigning sequence numbers
	senders  []*core.Sender
	recvRec  *metrics.FlightRecorder
	reg      *metrics.Registry
	topology string
	fault    string
	workload string
}

// payloadFor builds the deterministic message body for one emission.
func payloadFor(spec senderSpec, k int) []byte {
	p := make([]byte, spec.size)
	for i := range p {
		p[i] = byte(int(spec.exp) + k + i)
	}
	return p
}

var (
	cellDTNAddr  = wire.AddrFrom(10, 0, 1, 1, 7000)
	cellDTN2Addr = wire.AddrFrom(10, 0, 1, 2, 7000)
	cellRecvAddr = wire.AddrFrom(10, 0, 2, 1, 7000)
)

func cellLink() netsim.LinkConfig {
	return netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond}
}

// runCell executes one scenario on the simulator substrate and checks it
// against the invariant oracles. Each cell owns a private netsim.Network
// — its own event loop and virtual clock — so cells are data-race-free
// under Run's worker pool.
func runCell(cell Cell, spec Spec) CellResult {
	spec = spec.withDefaults()
	n := spec.Messages
	res := CellResult{
		ID: cell.ID(), Seed: cell.Seed,
		Topology: cell.Topology, Fault: cell.Fault, Workload: cell.Workload,
	}

	fspec, crashAt := faultSpec(cell.Fault, cell.Seed, n)
	plan := faults.New(fspec)
	nw := netsim.New(cell.Seed)
	led := newLedger()

	var firstDelivery, lastDelivery time.Duration
	recvRec := metrics.NewFlightRecorder(1 << 15)
	recv := core.NewReceiver(nw, "recv", cellRecvAddr, core.ReceiverConfig{
		NAKDelay:    400 * time.Microsecond,
		NAKRetry:    2500 * time.Microsecond,
		NAKRetryMax: 8 * time.Millisecond,
		MaxNAKs:     3,
		Seed:        cell.Seed,
		MaxSeqJump:  4096,
		AckInterval: 2 * time.Millisecond,
		Ordered:     cell.Workload == "steady",
		Counters:    plan.Counters(),
		Recorder:    recvRec,
		OnMessage: func(m core.Message) {
			now := time.Duration(nw.Now())
			if firstDelivery == 0 {
				firstDelivery = now
			}
			lastDelivery = now
			led.delivered(m)
		},
		OnGap: func(exp wire.ExperimentID, seq uint64) {
			led.writeOff(exp, seq)
		},
	})

	env := &cellEnv{
		nw: nw, recv: recv, recvRec: recvRec,
		topology: cell.Topology, fault: cell.Fault, workload: cell.Workload,
	}

	bufCfg := func(rec *metrics.FlightRecorder) core.BufferConfig {
		return core.BufferConfig{
			// No back-pressure, so no congestion control perturbs the
			// fault schedule.
			Upgrade:       dmtp.ModeLive,
			Forward:       cellRecvAddr,
			ForwardPort:   0,
			MaxAge:        time.Hour,
			CapacityBytes: 48 << 10,
			Recorder:      rec,
		}
	}

	// Topology. The downstream (faulted) link is always connected first,
	// so every buffer's WAN egress is port 0 regardless of sender count.
	faultedLink := netsim.LinkConfig{
		RateBps: netsim.Gbps(100), Delay: time.Microsecond, Fault: faults.SimFault(plan),
	}
	var crashTarget *core.BufferNode
	var senderDst wire.Addr
	var senderHub *netsim.Node
	var journalDir string
	switch cell.Topology {
	case "single":
		rec := metrics.NewFlightRecorder(1 << 15)
		dtn := core.NewBufferNode(nw, "dtn", cellDTNAddr, bufCfg(rec))
		nw.ConnectAsym(dtn.Node(), recv.Node(), faultedLink, cellLink())
		env.buffers = []*core.BufferNode{dtn}
		env.bufRecs = []*metrics.FlightRecorder{rec}
		env.upgrader, crashTarget = dtn, dtn
		senderDst, senderHub = cellDTNAddr, dtn.Node()
	case "chain":
		rec1 := metrics.NewFlightRecorder(1 << 15)
		rec2 := metrics.NewFlightRecorder(1 << 15)
		dtn1 := core.NewBufferNode(nw, "dtn1", cellDTNAddr, bufCfg(rec1))
		cfg2 := bufCfg(rec2)
		cfg2.StashTransit = true // the paper's closer retransmission buffer
		dtn2 := core.NewBufferNode(nw, "dtn2", cellDTN2Addr, cfg2)
		nw.ConnectAsym(dtn2.Node(), recv.Node(), faultedLink, cellLink())
		nw.Connect(dtn1.Node(), dtn2.Node(), cellLink())
		env.buffers = []*core.BufferNode{dtn1, dtn2}
		env.bufRecs = []*metrics.FlightRecorder{rec1, rec2}
		env.upgrader, crashTarget = dtn1, dtn2
		senderDst, senderHub = cellDTNAddr, dtn1.Node()
	case "p4sim":
		rec := metrics.NewFlightRecorder(1 << 15)
		dtn := core.NewBufferNode(nw, "dtn1", cellDTNAddr, bufCfg(rec))
		fwd := p4sim.NewForwarder().
			Route(cellRecvAddr, 1).
			Route(cellDTNAddr, 0)
		for _, ss := range workloadSpecs(cell.Topology, cell.Workload, n) {
			fwd.Route(ss.addr, 0)
		}
		sw := p4sim.NewSwitch(fwd, 400*time.Nanosecond,
			&p4sim.AgeTracker{PortDeltaMicros: map[int]uint32{p4sim.WildcardPort: 0}},
			p4sim.ExperimentCounter{},
		)
		swNode := nw.AddNode("tofino2", wire.Addr{}, sw)
		nw.Connect(dtn.Node(), swNode, cellLink())
		nw.ConnectAsym(swNode, recv.Node(), faultedLink, cellLink())
		env.buffers = []*core.BufferNode{dtn}
		env.bufRecs = []*metrics.FlightRecorder{rec}
		env.upgrader, crashTarget = dtn, dtn
		senderDst, senderHub = cellDTNAddr, dtn.Node()
	case "fanin":
		// Many flows, one sharded relay: the workload's senders plus the
		// three extra fan-in flows all land on a four-shard BufferNode,
		// whose flow table routes every flow to the one receiver.
		rec := metrics.NewFlightRecorder(1 << 15)
		cfg := bufCfg(rec)
		cfg.Shards = 4
		dtn := core.NewBufferNode(nw, "dtn", cellDTNAddr, cfg)
		nw.ConnectAsym(dtn.Node(), recv.Node(), faultedLink, cellLink())
		env.buffers = []*core.BufferNode{dtn}
		env.bufRecs = []*metrics.FlightRecorder{rec}
		env.upgrader, crashTarget = dtn, dtn
		senderDst, senderHub = cellDTNAddr, dtn.Node()
	case "durable":
		// The single-relay shape with the stash write-ahead journal under
		// a two-shard buffer: crash cells replay the journal on restart,
		// and the journal oracle holds every cell to the replay balance.
		// Each cell journals into its own temp directory, removed once the
		// oracles have inspected the recovery.
		dir, err := os.MkdirTemp("", "campaign-journal-")
		if err != nil {
			panic(fmt.Sprintf("campaign: journal tempdir: %v", err))
		}
		journalDir = dir
		rec := metrics.NewFlightRecorder(1 << 15)
		cfg := bufCfg(rec)
		cfg.Shards = 2
		cfg.JournalDir = dir
		dtn := core.NewBufferNode(nw, "dtn", cellDTNAddr, cfg)
		nw.ConnectAsym(dtn.Node(), recv.Node(), faultedLink, cellLink())
		env.buffers = []*core.BufferNode{dtn}
		env.bufRecs = []*metrics.FlightRecorder{rec}
		env.upgrader, crashTarget = dtn, dtn
		senderDst, senderHub = cellDTNAddr, dtn.Node()
	}

	// Workload: one sender node per source address (one port each, so
	// control traffic routes back over its only link); series sharing an
	// address — the burst rides the steady sender — reuse its node.
	byAddr := make(map[wire.Addr]*core.Sender)
	for _, ss := range workloadSpecs(cell.Topology, cell.Workload, n) {
		ss := ss
		snd := byAddr[ss.addr]
		if snd == nil {
			snd = core.NewSender(nw, ss.name, ss.addr, core.SenderConfig{
				Experiment: ss.exp,
				Dst:        senderDst,
				Mode:       ss.mode,
			})
			nw.Connect(snd.Node(), senderHub, cellLink())
			byAddr[ss.addr] = snd
			env.senders = append(env.senders, snd)
		}
		for k := 0; k < ss.count; k++ {
			k := k
			nw.Loop().At(sim.Time(ss.start+time.Duration(k)*ss.every), func() {
				snd.Emit(payloadFor(ss, k), ss.slice)
			})
		}
	}

	if crashAt > 0 {
		target := crashTarget
		nw.Loop().At(sim.Time(crashAt), func() {
			target.Crash()
			target.Restart()
		})
	}

	// Metric registry: the receiver exports its dmtp.rx.* set; the
	// consistency oracle cross-checks the samples against raw stats.
	env.reg = metrics.NewRegistry()
	recv.RegisterMetrics(env.reg)

	nw.Loop().Run()

	// Harvest counters.
	for _, s := range env.senders {
		res.Sent += s.Stats.Sent
	}
	res.Upgraded = env.upgrader.Stats().Upgraded
	st := recv.Stats
	res.Delivered = st.Delivered
	res.Duplicates = st.Duplicates
	res.Recovered = st.Recovered
	res.Lost = st.Lost
	res.Rejected = st.Rejected
	res.NAKsSent = st.NAKsSent
	for i := range env.buffers {
		bs := env.buffers[i].Stats()
		res.Retransmits += bs.Retransmits
		res.Misses += bs.Misses
		res.Evicted += bs.Evicted
		res.Trimmed += bs.Trimmed
		res.Crashes += bs.Crashes
		res.Replayed += env.buffers[i].JournalStats().Replayed
	}
	res.TailLoss = int64(res.Upgraded) - led.sequencedObserved()
	res.ElapsedVirtualNs = int64(nw.Now())
	if span := lastDelivery - firstDelivery; span > 0 {
		res.GoodputMbps = float64(recv.DeliveredBytes*8) / span.Seconds() / 1e6
	}
	res.OWDP50Ns = recv.LatencyHist.Quantile(0.5)
	res.OWDP99Ns = recv.LatencyHist.Quantile(0.99)
	res.RecoveryP50Ns = recv.RecoveryHist.Quantile(0.5)
	res.RecoveryP99Ns = recv.RecoveryHist.Quantile(0.99)

	res.Violations = checkOracles(env, led, &res)
	if len(res.Violations) == 0 {
		res.Outcome = "ok"
	} else {
		res.Outcome = "violation"
	}
	if journalDir != "" {
		for _, b := range env.buffers {
			b.CloseJournal()
		}
		os.RemoveAll(journalDir)
	}
	return res
}
