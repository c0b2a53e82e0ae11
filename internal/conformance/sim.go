package conformance

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dmtp"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// RunSim executes the scenario on the simulator substrate: one sender
// node per flow feeds a (sharded) BufferNode that forwards every flow to
// one receiver, the scripted drop plan rides the buffer→receiver link as
// a netsim fault, sends are scheduled on the virtual timeline, the
// optional crash+restart fires at its exact virtual instant, and the loop
// runs to quiescence.
func RunSim(sc Scenario) *Transcript {
	nw := netsim.New(1)
	plan := sc.plan()
	tr, flowOf := newTranscript(sc)
	tracer := tracespan.NewCollector(0)

	dtnAddr := wire.AddrFrom(10, 0, 1, 1, 7000)
	recvAddr := wire.AddrFrom(10, 0, 2, 1, 7000)

	recv := core.NewReceiver(nw, "recv", recvAddr, core.ReceiverConfig{
		NAKDelay:    sc.NAKDelay,
		NAKRetry:    sc.NAKRetry,
		NAKRetryMax: sc.NAKRetryMax,
		MaxNAKs:     sc.MaxNAKs,
		Seed:        sc.Seed,
		Counters:    plan.Counters(),
		OnMessage: func(m core.Message) {
			if f := flowOf(m.Experiment); f != nil {
				f.Delivered = append(f.Delivered, Delivery{Seq: m.Seq, Recovered: m.Recovered})
			}
		},
		OnNAK: func(exp wire.ExperimentID, rs []wire.SeqRange) {
			if f := flowOf(exp); f != nil {
				f.NAKs = append(f.NAKs, FormatRanges(rs))
			}
		},
		OnGap: func(exp wire.ExperimentID, seq uint64) {
			if f := flowOf(exp); f != nil {
				f.Gaps = append(f.Gaps, seq)
			}
		},
		Tracer: tracer,
	})
	dtn := core.NewBufferNode(nw, "dtn", dtnAddr, core.BufferConfig{
		Upgrade:     dmtp.ModeLive, // the live relay's mode: both emit the same bytes
		Forward:     recvAddr,
		ForwardPort: len(sc.Flows),
		MaxAge:      time.Hour,
		Shards:      sc.Shards,
	})
	senders := make([]*core.Sender, len(sc.Flows))
	for i, fl := range sc.Flows {
		addr := wire.AddrFrom(10, 0, 0, byte(i+1), 4000)
		senders[i] = core.NewSender(nw, fmt.Sprintf("sensor%d", i), addr, core.SenderConfig{
			Experiment:  fl.Experiment,
			Dst:         dtnAddr,
			Mode:        dmtp.ModeBare,
			TraceSample: sc.TraceSample,
		})
	}

	// Sender links occupy DTN ports 0..n-1 in flow order; the faulted
	// egress link is port n (= BufferConfig.ForwardPort above).
	for _, snd := range senders {
		nw.Connect(snd.Node(), dtn.Node(),
			netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond})
	}
	nw.ConnectAsym(dtn.Node(), recv.Node(),
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond, Fault: faults.SimFault(plan)},
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond})

	for _, s := range sc.sends() {
		nw.Loop().At(sim.Time(s.at), func() {
			senders[s.flow].Emit(payload(sc.Flows[s.flow].Experiment, s.msg), 0)
		})
	}
	if sc.CrashAt > 0 {
		nw.Loop().At(sim.Time(sc.CrashAt), func() {
			dtn.Crash()
			dtn.Restart()
		})
	}
	nw.Loop().Run()

	tr.Spans = tracer.Structures()
	st := recv.Stats
	tr.Totals = Totals{
		Received:   st.Received,
		Delivered:  st.Delivered,
		Duplicates: st.Duplicates,
		NAKsSent:   st.NAKsSent,
		Recovered:  st.Recovered,
		Lost:       st.Lost,
	}
	return tr
}
