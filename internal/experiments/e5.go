package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/daq"
	"repro/internal/dmtp"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// E5Row is one fault-tolerance scenario and its outcome: how much of the
// stream arrived, how much was repaired from the in-network buffer, and how
// long repairs took.
type E5Row struct {
	Label         string
	Sent          uint64
	Delivered     uint64 // distinct sequenced messages handed to the app
	Recovered     uint64
	Lost          uint64 // written off after the NAK retry cap
	NAKsSent      uint64
	InjectedDrops uint64 // drops the fault plan actually injected
	Crashes       uint64
	RecoveryP50   time.Duration
	RecoveryP99   time.Duration
}

// e5Path is the minimal recovery topology with a seeded fault plan on the
// WAN leg (DTN→receiver direction only; NAKs travel back clean):
//
//	sensor ──100G/10µs── DTN1 ──100G/5ms (faulted)── receiver
type e5Path struct {
	nw       *netsim.Network
	sender   *core.Sender
	dtn1     *core.BufferNode
	receiver *core.Receiver
	plan     *faults.Plan
	seen     map[uint64]bool
}

func newE5Path(simSeed int64, spec faults.Spec, rcfg core.ReceiverConfig) *e5Path {
	p := &e5Path{
		nw:   netsim.New(simSeed),
		plan: faults.New(spec),
		seen: make(map[uint64]bool),
	}
	sensorAddr := wire.AddrFrom(10, 0, 0, 1, 4000)
	dtn1Addr := wire.AddrFrom(10, 0, 1, 1, 7000)
	recvAddr := wire.AddrFrom(10, 0, 2, 1, 7000)

	rcfg.Counters = p.plan.Counters()
	rcfg.OnMessage = func(m core.Message) {
		if m.Seq != 0 {
			p.seen[m.Seq] = true
		}
	}
	p.receiver = core.NewReceiver(p.nw, "recv", recvAddr, rcfg)
	p.dtn1 = core.NewBufferNode(p.nw, "dtn1", dtn1Addr, core.BufferConfig{
		Upgrade:     dmtp.ModeWAN,
		Forward:     recvAddr,
		ForwardPort: 1,
		MaxAge:      time.Second,
		Routes:      map[wire.Addr]int{sensorAddr: 0},
	})
	p.sender = core.NewSender(p.nw, "sensor", sensorAddr, core.SenderConfig{
		Experiment: 42,
		Dst:        dtn1Addr,
		Mode:       dmtp.ModeBare,
	})

	p.nw.Connect(p.sender.Node(), p.dtn1.Node(),
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 10 * time.Microsecond})
	p.nw.ConnectAsym(p.dtn1.Node(), p.receiver.Node(),
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 5 * time.Millisecond, Fault: faults.SimFault(p.plan)},
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 5 * time.Millisecond})
	return p
}

func (p *e5Path) stream(count uint64, seed int64) {
	p.sender.Stream(daq.NewGeneric(daq.GenericConfig{
		MessageSize: 1000, Interval: 50 * time.Microsecond, Count: count, Seed: seed,
	}))
	p.nw.Loop().Run()
}

// topUp streams small extra batches until every message sent so far has
// been delivered. A dropped stream tail is undetectable until later seqs
// arrive (DMTP has no end-of-stream marker), so gap detection — and
// recovery from the still-warm buffer — needs follow-on traffic.
func (p *e5Path) topUp(sent *uint64, seed int64) {
	for i := int64(0); uint64(len(p.seen)) < *sent; i++ {
		p.stream(8, seed+i)
		*sent += 8
	}
}

func (p *e5Path) row(label string, sent uint64) E5Row {
	st := p.receiver.Stats
	return E5Row{
		Label:         label,
		Sent:          sent,
		Delivered:     uint64(len(p.seen)),
		Recovered:     st.Recovered,
		Lost:          st.Lost,
		NAKsSent:      st.NAKsSent,
		InjectedDrops: p.plan.Counters().Total("inject.drop."),
		Crashes:       p.dtn1.Stats().Crashes,
		RecoveryP50:   time.Duration(p.receiver.RecoveryHist.Quantile(0.5)),
		RecoveryP99:   time.Duration(p.receiver.RecoveryHist.Quantile(0.99)),
	}
}

func e5Recovery() core.ReceiverConfig {
	return core.ReceiverConfig{
		NAKDelay:    200 * time.Microsecond,
		NAKRetry:    15 * time.Millisecond, // > 10 ms buffer RTT
		NAKRetryMax: 60 * time.Millisecond,
		MaxNAKs:     10,
	}
}

// E5FaultTolerance measures delivery completeness and recovery latency
// under seeded fault injection (internal/faults) across the failure modes
// the chaos suite exercises: clean baseline, Gilbert burst loss, burst loss
// with a relay crash/restart between two stream phases (warm-buffer
// recovery → 100% delivery), a mid-flow crash that orphans unrecovered
// gaps (graceful degradation → bounded permanent loss), reordering absorbed
// by the NAK delay, and a scripted 2 ms link flap. Deterministic: every
// scenario's fault schedule derives from seed alone.
func E5FaultTolerance(messages int, seed int64) []E5Row {
	n := uint64(messages)
	var rows []E5Row

	// Clean baseline: nothing injected, nothing recovered.
	p := newE5Path(seed, faults.Spec{}, e5Recovery())
	p.stream(n, seed)
	rows = append(rows, p.row("clean", n))

	// 10% Gilbert burst loss (mean burst 3): all repaired from DTN 1.
	p = newE5Path(seed, faults.Spec{Seed: seed + 10, BurstLoss: 0.10, MeanBurstLen: 3}, e5Recovery())
	sent := n
	p.stream(n, seed)
	p.topUp(&sent, seed+100)
	rows = append(rows, p.row("10% burst loss", sent))

	// Burst loss + crash/restart between phases: phase-1 gaps heal before
	// the crash empties the buffer, phase-2 gaps heal from the restarted
	// (warm again) buffer — completeness stays 100%.
	p = newE5Path(seed, faults.Spec{Seed: seed + 10, BurstLoss: 0.10, MeanBurstLen: 3}, e5Recovery())
	sent = n / 2
	p.stream(sent, seed)
	p.topUp(&sent, seed+100) // heal hidden tail gaps while the buffer is warm
	p.dtn1.Crash()
	p.dtn1.Restart()
	sent += n - n/2
	p.stream(n-n/2, seed+1)
	p.topUp(&sent, seed+200)
	rows = append(rows, p.row("burst loss + crash/restart", sent))

	// Mid-flow crash: retransmission state is lost while gaps are still
	// open; the bounded NAK loop writes them off and delivery continues
	// around the holes.
	rcfg := e5Recovery()
	rcfg.NAKRetryMax = 30 * time.Millisecond
	rcfg.MaxNAKs = 3
	p = newE5Path(seed, faults.Spec{Seed: seed + 20, BurstLoss: 0.10, MeanBurstLen: 3}, rcfg)
	p.nw.Loop().At(sim.Time(5*time.Millisecond), p.dtn1.Crash)
	p.nw.Loop().At(sim.Time(8*time.Millisecond), p.dtn1.Restart)
	p.stream(2*n, seed)
	rows = append(rows, p.row("mid-flow crash (cold buffer)", 2*n))

	// Reordering below the NAK delay: tolerated without recovery traffic.
	p = newE5Path(seed, faults.Spec{Seed: seed + 30, ReorderProb: 0.10, ReorderDelay: 2 * time.Millisecond},
		core.ReceiverConfig{
			NAKDelay: 4 * time.Millisecond,
			NAKRetry: 15 * time.Millisecond,
			MaxNAKs:  10,
		})
	p.stream(n, seed)
	rows = append(rows, p.row("10% reorder (2 ms)", n))

	// Scripted link flap: a 2 ms hard outage, refilled from the buffer.
	p = newE5Path(seed, faults.Spec{
		Seed:  seed + 40,
		Flaps: []faults.Flap{{Start: 3 * time.Millisecond, Len: 2 * time.Millisecond}},
	}, e5Recovery())
	p.stream(n, seed)
	rows = append(rows, p.row("2 ms link flap", n))

	return rows
}

// E5Table renders the fault-tolerance matrix.
func E5Table(rows []E5Row) string {
	t := NewTable("scenario", "sent", "delivered", "recovered", "lost", "naks", "inj drops", "crashes", "rec p50", "rec p99")
	for _, r := range rows {
		t.Row(r.Label, r.Sent, r.Delivered, r.Recovered, r.Lost, r.NAKsSent,
			r.InjectedDrops, r.Crashes, fmtDur(r.RecoveryP50), fmtDur(r.RecoveryP99))
	}
	return t.String()
}
