package core

import (
	"testing"
	"time"

	"repro/internal/daq"
	"repro/internal/dmtp"
	"repro/internal/netsim"
	"repro/internal/wire"
)

func orderedPath(t *testing.T, ordered bool, loss float64) (*netsim.Network, *Receiver, *[]uint64) {
	t.Helper()
	nw := netsim.New(8)
	sensorAddr := wire.AddrFrom(10, 15, 0, 1, 1)
	dtnAddr := wire.AddrFrom(10, 15, 1, 1, 1)
	dstAddr := wire.AddrFrom(10, 15, 2, 1, 1)
	var seqs []uint64
	rcv := NewReceiver(nw, "dst", dstAddr, ReceiverConfig{
		Ordered:  ordered,
		NAKRetry: 40 * time.Millisecond,
		OnMessage: func(m Message) {
			seqs = append(seqs, m.Seq)
		},
	})
	dtn := NewBufferNode(nw, "dtn", dtnAddr, BufferConfig{
		Upgrade:     dmtp.ModeWAN,
		Forward:     dstAddr,
		ForwardPort: 1,
		MaxAge:      time.Second,
		Routes:      map[wire.Addr]int{sensorAddr: 0},
	})
	snd := NewSender(nw, "sensor", sensorAddr, SenderConfig{
		Experiment: 5, Dst: dtnAddr, Mode: dmtp.ModeBare,
	})
	nw.Connect(snd.Node(), dtn.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 10 * time.Microsecond})
	nw.Connect(dtn.Node(), rcv.Node(), netsim.LinkConfig{
		RateBps: netsim.Gbps(10), Delay: 15 * time.Millisecond, LossProb: loss})
	snd.Stream(daq.NewGeneric(daq.GenericConfig{
		MessageSize: 4000, Interval: 30 * time.Microsecond, Count: 1000, Seed: 3,
	}))
	nw.Loop().Run()
	return nw, rcv, &seqs
}

func TestOrderedDeliveryIsInOrderUnderLoss(t *testing.T) {
	_, rcv, seqs := orderedPath(t, true, 0.01)
	if len(*seqs) != 1000 {
		t.Fatalf("delivered %d", len(*seqs))
	}
	for i := 1; i < len(*seqs); i++ {
		if (*seqs)[i] <= (*seqs)[i-1] {
			t.Fatalf("ordered delivery violated at %d: %d after %d", i, (*seqs)[i], (*seqs)[i-1])
		}
	}
	// The ablation's point: ordering reintroduces head-of-line blocking
	// at recovery-RTT scale even on DMTP.
	if rcv.OrderedHOL.Count() == 0 {
		t.Fatal("no HOL samples")
	}
	if max := time.Duration(rcv.OrderedHOL.Max()); max < 20*time.Millisecond {
		t.Fatalf("ordered HOL max %v; expected a recovery round trip", max)
	}
}

func TestUnorderedDeliveryInterleavesRecoveries(t *testing.T) {
	_, rcv, seqs := orderedPath(t, false, 0.01)
	if len(*seqs) != 1000 {
		t.Fatalf("delivered %d", len(*seqs))
	}
	inversions := 0
	for i := 1; i < len(*seqs); i++ {
		if (*seqs)[i] < (*seqs)[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("recovered messages should arrive out of order by design")
	}
	if rcv.Stats.Recovered == 0 {
		t.Fatal("no recoveries; test vacuous")
	}
}

func TestOrderedDeliverySkipsWrittenOffLosses(t *testing.T) {
	// With recovery effectively disabled (buffer never reached: MaxNAKs
	// exhausts fast), ordered delivery must not deadlock behind permanent
	// losses — written-off slots are skipped.
	nw := netsim.New(8)
	sensorAddr := wire.AddrFrom(10, 16, 0, 1, 1)
	dtnAddr := wire.AddrFrom(10, 16, 1, 1, 1)
	dstAddr := wire.AddrFrom(10, 16, 2, 1, 1)
	var delivered int
	rcv := NewReceiver(nw, "dst", dstAddr, ReceiverConfig{
		Ordered:  true,
		NAKDelay: 100 * time.Microsecond,
		NAKRetry: 500 * time.Microsecond, // well under the 30 ms recovery RTT
		MaxNAKs:  2,
		OnMessage: func(m Message) {
			delivered++
		},
	})
	dtn := NewBufferNode(nw, "dtn", dtnAddr, BufferConfig{
		Upgrade:       dmtp.ModeWAN,
		Forward:       dstAddr,
		ForwardPort:   1,
		MaxAge:        time.Second,
		CapacityBytes: 4096, // nearly no buffer: most NAKs miss
		Routes:        map[wire.Addr]int{sensorAddr: 0},
	})
	snd := NewSender(nw, "sensor", sensorAddr, SenderConfig{Experiment: 5, Dst: dtnAddr, Mode: dmtp.ModeBare})
	nw.Connect(snd.Node(), dtn.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 10 * time.Microsecond})
	nw.Connect(dtn.Node(), rcv.Node(), netsim.LinkConfig{
		RateBps: netsim.Gbps(10), Delay: 15 * time.Millisecond, LossProb: 0.05})
	snd.Stream(daq.NewGeneric(daq.GenericConfig{
		MessageSize: 1000, Interval: 30 * time.Microsecond, Count: 500, Seed: 3,
	}))
	nw.Loop().Run()

	if rcv.Stats.Lost == 0 {
		t.Fatal("no permanent losses; test vacuous")
	}
	if delivered == 0 || uint64(delivered)+rcv.Stats.Lost < 490 {
		t.Fatalf("ordered delivery stalled: delivered=%d lost=%d", delivered, rcv.Stats.Lost)
	}
	if rcv.OutstandingGaps() != 0 {
		t.Fatalf("%d gaps outstanding at quiescence", rcv.OutstandingGaps())
	}
}
