package conformance

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dmtp"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// liveWaitTimeout bounds each wait for real socket traffic to land; the
// conditions waited on are exact cumulative counter equalities, so the
// timeout only trips when something is genuinely broken.
const liveWaitTimeout = 10 * time.Second

// RunLive executes the scenario on the live substrate: one live.Sender
// per flow (each a distinct source port, hence a distinct flow-table
// entry) through one (sharded) relay to one receiver, over real loopback
// sockets, while a shared dmtp.FakeClock carries protocol time. The
// driver advances the clock through the merged event timeline (sends,
// the crash, every due NAK timer) in virtual order, settling the socket
// round trips between steps so the live run observes the same event
// interleaving as the simulator.
func RunLive(sc Scenario) (*Transcript, error) {
	fc := dmtp.NewFakeClock(0)
	plan := sc.plan()
	tr, flowOf := newTranscript(sc)
	tracer := tracespan.NewCollector(0)
	var mu sync.Mutex
	dispatched := uint64(0)

	recv, err := live.NewReceiver(live.ReceiverConfig{
		Listen:      "127.0.0.1:0",
		NAKDelay:    sc.NAKDelay,
		NAKRetry:    sc.NAKRetry,
		NAKRetryMax: sc.NAKRetryMax,
		MaxNAKs:     sc.MaxNAKs,
		Seed:        sc.Seed,
		Clock:       fc,
		Counters:    plan.Counters(),
		OnMessage: func(m live.Message) {
			mu.Lock()
			dispatched++
			if f := flowOf(m.Experiment); f != nil {
				f.Delivered = append(f.Delivered, Delivery{Seq: m.Seq, Recovered: m.Recovered})
			}
			mu.Unlock()
		},
		OnNAK: func(exp wire.ExperimentID, rs []wire.SeqRange) {
			mu.Lock()
			if f := flowOf(exp); f != nil {
				f.NAKs = append(f.NAKs, FormatRanges(rs))
			}
			mu.Unlock()
		},
		OnGap: func(exp wire.ExperimentID, seq uint64) {
			mu.Lock()
			if f := flowOf(exp); f != nil {
				f.Gaps = append(f.Gaps, seq)
			}
			mu.Unlock()
		},
		Tracer: tracer,
	})
	if err != nil {
		return nil, err
	}
	defer recv.Close()

	relay, err := live.NewRelay(live.RelayConfig{
		Listen:  "127.0.0.1:0",
		Forward: recv.Addr(),
		MaxAge:  time.Hour,
		Clock:   fc,
		Shards:  sc.Shards,
		Wrap:    func(c live.UDPConn) live.UDPConn { return faults.WrapConn(c, plan) },
	})
	if err != nil {
		return nil, err
	}
	defer relay.Close()

	senders := make([]*live.Sender, len(sc.Flows))
	for i, fl := range sc.Flows {
		snd, err := live.NewSenderWithConfig(live.SenderConfig{
			Dst:         relay.Addr(),
			Experiment:  fl.Experiment,
			TraceSample: sc.TraceSample,
			BatchSize:   sc.BatchSize,
		})
		if err != nil {
			return nil, err
		}
		defer snd.Close()
		senders[i] = snd
	}

	// settle waits until the socket substrate is quiescent: every NAK the
	// receiver has emitted was served by the relay, and every surviving
	// egress packet (forwards + retransmissions + scripted duplicates −
	// scripted drops) was ingested and dispatched. All terms are
	// cumulative counters, so the condition cannot pass early on stale
	// values.
	settle := func() error {
		return waitLive(func() bool {
			if relay.Stats().NAKs != recv.Stats().NAKsSent {
				return false
			}
			rs := relay.Stats() // re-read: NAK service may have retransmitted
			drops := plan.Counters().Get(faults.CounterDropScripted) +
				plan.Counters().Get(faults.CounterDropFlap)
			expected := rs.Forwarded + rs.Retransmits +
				plan.Counters().Get(faults.CounterDuplicate) - drops
			mu.Lock()
			d := dispatched
			mu.Unlock()
			return d+recv.Stats().Duplicates == expected
		})
	}
	// drainUntil fires every pending engine timer due at or before target,
	// one per step, settling the resulting NAK/retransmission round trip.
	drainUntil := func(target int64) error {
		for {
			at, ok := fc.NextAt()
			if !ok || at > target {
				return nil
			}
			fc.AdvanceTo(at)
			if err := settle(); err != nil {
				return err
			}
		}
	}

	type event struct {
		at    time.Duration
		send  send
		crash bool
	}
	var events []event
	for _, s := range sc.sends() {
		events = append(events, event{at: s.at, send: s})
	}
	if sc.CrashAt > 0 {
		events = append(events, event{at: sc.CrashAt, crash: true})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	sent := uint64(0)
	for _, ev := range events {
		if err := drainUntil(int64(ev.at)); err != nil {
			return nil, err
		}
		fc.AdvanceTo(int64(ev.at))
		if ev.crash {
			relay.Crash()
			if err := relay.Restart(); err != nil {
				return nil, err
			}
			continue
		}
		exp := sc.Flows[ev.send.flow].Experiment
		if err := senders[ev.send.flow].Send(payload(exp, ev.send.msg), 0); err != nil {
			return nil, err
		}
		sent++
		if err := waitLive(func() bool { return relay.Stats().Upgraded == sent }); err != nil {
			return nil, fmt.Errorf("flow %d send %d never reached the relay: %w", exp, ev.send.msg, err)
		}
		if err := settle(); err != nil {
			return nil, err
		}
	}

	// Drain the remaining protocol timeline (NAK retries, write-offs).
	for i := 0; ; i++ {
		at, ok := fc.NextAt()
		if !ok {
			break
		}
		if i > 1000 {
			return nil, fmt.Errorf("engine timers never quiesced (next at %d)", at)
		}
		fc.AdvanceTo(at)
		if err := settle(); err != nil {
			return nil, err
		}
	}
	if n := recv.OutstandingGaps(); n != 0 {
		return nil, fmt.Errorf("%d gaps outstanding at quiescence", n)
	}

	tr.Spans = tracer.Structures()
	st := recv.Stats()
	mu.Lock()
	defer mu.Unlock()
	tr.Totals = Totals{
		Received:   st.Received,
		Delivered:  st.Delivered,
		Duplicates: st.Duplicates,
		NAKsSent:   st.NAKsSent,
		Recovered:  st.Recovered,
		Lost:       st.PermanentLoss,
	}
	return tr, nil
}

// waitLive polls cond until it holds or the conformance timeout expires.
func waitLive(cond func() bool) error {
	deadline := time.Now().Add(liveWaitTimeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("conformance: timed out awaiting socket quiescence")
}
