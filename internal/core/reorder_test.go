package core

import (
	"testing"
	"time"

	"repro/internal/daq"
	"repro/internal/dmtp"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// reorderPath wires sensor → DTN → receiver with a jittery (reordering)
// but lossless WAN.
func reorderPath(t *testing.T, nakDelay time.Duration) (*netsim.Network, *Sender, *BufferNode, *Receiver) {
	t.Helper()
	nw := netsim.New(9)
	sensorAddr := wire.AddrFrom(10, 12, 0, 1, 1)
	dtnAddr := wire.AddrFrom(10, 12, 1, 1, 1)
	dstAddr := wire.AddrFrom(10, 12, 2, 1, 1)
	rcv := NewReceiver(nw, "dst", dstAddr, ReceiverConfig{
		NAKDelay: nakDelay,
		NAKRetry: 40 * time.Millisecond,
	})
	dtn := NewBufferNode(nw, "dtn", dtnAddr, BufferConfig{
		Upgrade:     dmtp.ModeWAN,
		Forward:     dstAddr,
		ForwardPort: 1,
		MaxAge:      time.Second,
		Routes:      map[wire.Addr]int{sensorAddr: 0},
	})
	snd := NewSender(nw, "sensor", sensorAddr, SenderConfig{
		Experiment: 3, Dst: dtnAddr, Mode: dmtp.ModeBare,
	})
	nw.Connect(snd.Node(), dtn.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 10 * time.Microsecond})
	// Jitter up to 300 µs on a 10 ms WAN: heavy reordering, zero loss.
	nw.Connect(dtn.Node(), rcv.Node(), netsim.LinkConfig{
		RateBps: netsim.Gbps(10), Delay: 10 * time.Millisecond, Jitter: 300 * time.Microsecond})
	return nw, snd, dtn, rcv
}

func TestReorderToleranceAbsorbsJitter(t *testing.T) {
	// NAK delay (1 ms) exceeds the jitter (300 µs): reordering must not
	// trigger a single NAK, and everything is delivered exactly once.
	nw, snd, dtn, rcv := reorderPath(t, time.Millisecond)
	snd.Stream(daq.NewGeneric(daq.GenericConfig{
		MessageSize: 1000, Interval: 20 * time.Microsecond, Count: 1000, Seed: 1,
	}))
	nw.Loop().Run()
	if rcv.Stats.Delivered != 1000 || rcv.Stats.Duplicates != 0 {
		t.Fatalf("delivered %d dups %d", rcv.Stats.Delivered, rcv.Stats.Duplicates)
	}
	if rcv.Stats.GapsSeen == 0 {
		t.Fatal("jitter produced no transient gaps; test is vacuous")
	}
	if rcv.Stats.NAKsSent != 0 || dtn.Stats().NAKs != 0 {
		t.Fatalf("spurious NAKs under pure reordering: %d sent", rcv.Stats.NAKsSent)
	}
	if rcv.Stats.Lost != 0 || rcv.Stats.Recovered != 0 {
		t.Fatalf("loss accounting corrupted by reordering: %+v", rcv.Stats)
	}
}

func TestTinyNAKDelayCausesSpuriousRecovery(t *testing.T) {
	// The ablation direction: an aggressive NAK delay (10 µs) below the
	// jitter makes the receiver request retransmission of packets that
	// are merely late, wasting buffer work on duplicates.
	nw, snd, dtn, rcv := reorderPath(t, 10*time.Microsecond)
	snd.Stream(daq.NewGeneric(daq.GenericConfig{
		MessageSize: 1000, Interval: 20 * time.Microsecond, Count: 1000, Seed: 1,
	}))
	nw.Loop().Run()
	if rcv.Stats.Delivered != 1000 {
		t.Fatalf("delivered %d", rcv.Stats.Delivered)
	}
	if rcv.Stats.NAKsSent == 0 || dtn.Stats().Retransmits == 0 {
		t.Fatal("aggressive NAK delay produced no spurious recovery; test is vacuous")
	}
	if rcv.Stats.Duplicates == 0 {
		t.Fatal("spurious retransmissions should arrive as duplicates")
	}
}
