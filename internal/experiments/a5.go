package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/daq"
	"repro/internal/netsim"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

// A5Results measures the deadline-aware AQM (paper §5.3: explicit
// transport deadlines provide "an input to active queue management").
type A5Results struct {
	// Fresh-frame goodput (messages delivered un-aged) under each policy.
	FreshDeliveredPlain uint64
	FreshDeliveredAware uint64
	// Queue-full drops under each policy.
	DropsPlain uint64
	DropsAware uint64
	// AgedEvicted counts the stale frames the aware queue sacrificed.
	AgedEvicted uint64
}

// A5DeadlineAQM overloads a 1 Gbps bottleneck with an equal mix of
// already-stale bulk frames (age budget 1 µs — blown the moment the border
// switch stamps their age) and fresh deadline-critical frames (1 s
// budget), comparing a drop-tail queue against the deadline-aware queue
// that evicts aged frames first. The claim under test: once deadlines ride
// in the header, the network can sacrifice data that has already missed
// its purpose instead of data that still matters.
func A5DeadlineAQM(messages int, seed int64) A5Results {
	var res A5Results
	run := func(aware bool) (freshDelivered, drops, agedEvicted uint64) {
		nw := netsim.New(seed)
		srcAddr := wire.AddrFrom(10, 70, 0, 1, 1)
		dstAddr := wire.AddrFrom(10, 70, 1, 1, 1)

		rcv := core.NewReceiver(nw, "dst", dstAddr, core.ReceiverConfig{
			OnMessage: func(m core.Message) {
				if !m.Aged {
					freshDelivered++
				}
			},
		})
		fwd := p4sim.NewForwarder().Route(dstAddr, 1).Route(srcAddr, 0)
		// The age tracker marks the stale bulk before it reaches the
		// bottleneck queue, giving the AQM its signal.
		sw := p4sim.NewSwitch(fwd, 400*time.Nanosecond,
			&p4sim.AgeTracker{PortDeltaMicros: map[int]uint32{p4sim.WildcardPort: 0}}, fwd)
		swNode := nw.AddNode("bottleneck", wire.Addr{}, sw)

		src := nw.AddNode("src", srcAddr, &netsim.Host{})
		nw.Connect(src, swNode, netsim.LinkConfig{
			RateBps: 10e9, Delay: 50 * time.Microsecond, QueueBytes: 64 << 20})
		nw.Connect(swNode, rcv.Node(), netsim.LinkConfig{
			RateBps: 1e9, Delay: 50 * time.Microsecond,
			QueueBytes: 256 << 10, DeadlineAware: aware})

		bulk := daq.NewGeneric(daq.GenericConfig{
			Slice: 1, MessageSize: 8 << 10, Interval: 16 * time.Microsecond,
			Count: uint64(messages), Seed: seed,
		})
		fresh := daq.NewGeneric(daq.GenericConfig{
			Slice: 2, MessageSize: 8 << 10, Interval: 16 * time.Microsecond,
			Count: uint64(messages), Seed: seed + 1, Jitter: time.Microsecond,
		})
		merged := daq.NewMerge(bulk, fresh)

		var seq uint64
		emit := func(rec daq.Record) {
			seq++
			h := wire.Header{
				ConfigID:   7,
				Features:   wire.FeatSequenced | wire.FeatAgeTracked | wire.FeatTimestamped,
				Experiment: wire.NewExperimentID(6, rec.Slice),
			}
			h.Seq.Seq = seq
			h.Timestamp.OriginNanos = nw.Now().Nanos()
			if rec.Slice == 1 {
				h.Age.MaxAgeMicros = 1 // stale on arrival at the switch
			} else {
				h.Age.MaxAgeMicros = 1_000_000
			}
			pkt, err := h.AppendTo(make([]byte, 0, h.WireSize()+len(rec.Data)))
			if err != nil {
				panic(err)
			}
			src.SendTo(dstAddr, append(pkt, rec.Data...))
		}
		// Offer ≈8 Gbps (one 8 KiB frame per 8 µs) into the 1 Gbps
		// bottleneck: the queue must pick victims.
		var drive func()
		drive = func() {
			rec, ok := merged.Next()
			if !ok {
				return
			}
			emit(rec)
			nw.Loop().After(8*time.Microsecond, drive)
		}
		drive()
		nw.Loop().Run()

		st := swNode.Ports[1].Stats
		return freshDelivered, st.DropsQueueFull, st.DropsAgedEvicted
	}
	res.FreshDeliveredPlain, res.DropsPlain, _ = run(false)
	res.FreshDeliveredAware, res.DropsAware, res.AgedEvicted = run(true)
	return res
}

// Table renders the AQM comparison.
func (r A5Results) Table() string {
	t := NewTable("queue policy", "queue-full drops", "aged evicted", "fresh delivered")
	t.Row("drop-tail (today)", r.DropsPlain, 0, r.FreshDeliveredPlain)
	t.Row("deadline-aware", r.DropsAware, r.AgedEvicted, r.FreshDeliveredAware)
	return t.String()
}
