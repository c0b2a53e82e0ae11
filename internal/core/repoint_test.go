package core

import (
	"testing"
	"time"

	"repro/internal/daq"
	"repro/internal/dmtp"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// repointPath builds the paper's §5.1 scenario: two WAN segments with a
// mid-path exchange-point buffer between them.
//
//	sensor ── DTN1 ──(WAN1: 20 ms)── MID ──(WAN2: 20 ms, lossy)── DTN2
//
// Without repointing, DTN2 recovers from DTN1 (≈80 ms RTT); with the MID
// buffer adopting transit packets, recovery is a 40 ms round trip.
func repointPath(t *testing.T, repoint bool, loss float64) (*netsim.Network, *BufferNode, *BufferNode, *Receiver) {
	t.Helper()
	nw := netsim.New(6)
	sensorAddr := wire.AddrFrom(10, 14, 0, 1, 1)
	dtn1Addr := wire.AddrFrom(10, 14, 1, 1, 1)
	midAddr := wire.AddrFrom(10, 14, 2, 1, 1)
	dstAddr := wire.AddrFrom(10, 14, 3, 1, 1)

	rcv := NewReceiver(nw, "dtn2", dstAddr, ReceiverConfig{
		NAKDelay: 200 * time.Microsecond,
		NAKRetry: 100 * time.Millisecond, // covers even the far-buffer RTT
		MaxNAKs:  8,
	})
	mid := NewBufferNode(nw, "mid", midAddr, BufferConfig{
		Upgrade:      dmtp.ModeWAN,
		Forward:      dstAddr,
		ForwardPort:  1,
		StashTransit: repoint,
		Routes:       map[wire.Addr]int{sensorAddr: 0, dtn1Addr: 0},
	})
	dtn1 := NewBufferNode(nw, "dtn1", dtn1Addr, BufferConfig{
		Upgrade:     dmtp.ModeWAN,
		Forward:     dstAddr,
		ForwardPort: 1,
		MaxAge:      time.Second,
		Routes:      map[wire.Addr]int{sensorAddr: 0},
	})
	snd := NewSender(nw, "sensor", sensorAddr, SenderConfig{
		Experiment: 4, Dst: dtn1Addr, Mode: dmtp.ModeBare,
	})
	nw.Connect(snd.Node(), dtn1.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 10 * time.Microsecond})
	nw.Connect(dtn1.Node(), mid.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 20 * time.Millisecond})
	nw.Connect(mid.Node(), rcv.Node(), netsim.LinkConfig{
		RateBps: netsim.Gbps(10), Delay: 20 * time.Millisecond, LossProb: loss})

	snd.Stream(daq.NewGeneric(daq.GenericConfig{
		MessageSize: 4000, Interval: 20 * time.Microsecond, Count: 1500, Seed: 2,
	}))
	nw.Loop().Run()
	return nw, dtn1, mid, rcv
}

func TestMidPathBufferRepointing(t *testing.T) {
	const loss = 5e-3
	_, dtn1Far, midOff, rcvFar := repointPath(t, false, loss)
	_, dtn1Near, midOn, rcvNear := repointPath(t, true, loss)

	// Both configurations deliver everything.
	for _, rcv := range []*Receiver{rcvFar, rcvNear} {
		if rcv.Stats.Lost != 0 || rcv.Stats.Delivered < 1500 {
			t.Fatalf("incomplete delivery: %+v", rcv.Stats)
		}
	}
	// Without repointing, NAKs travel to DTN1; with it, to MID.
	if dtn1Far.Stats().Retransmits == 0 || midOff.Stats().Retransmits != 0 {
		t.Fatalf("far config served from wrong buffer: dtn1=%d mid=%d",
			dtn1Far.Stats().Retransmits, midOff.Stats().Retransmits)
	}
	if midOn.Stats().Retransmits == 0 || dtn1Near.Stats().Retransmits != 0 {
		t.Fatalf("near config served from wrong buffer: dtn1=%d mid=%d",
			dtn1Near.Stats().Retransmits, midOn.Stats().Retransmits)
	}
	if midOn.Stats().Repointed == 0 {
		t.Fatal("no packets repointed")
	}
	// The headline claim: the closer buffer roughly halves recovery time
	// (80 ms RTT to DTN1 vs 40 ms to MID).
	far := time.Duration(rcvFar.RecoveryHist.Quantile(0.5))
	near := time.Duration(rcvNear.RecoveryHist.Quantile(0.5))
	if near >= far {
		t.Fatalf("repointing did not shorten recovery: near %v vs far %v", near, far)
	}
	if far < 75*time.Millisecond || far > 110*time.Millisecond {
		t.Fatalf("far recovery %v, want ≈80 ms", far)
	}
	if near < 35*time.Millisecond || near > 60*time.Millisecond {
		t.Fatalf("near recovery %v, want ≈40 ms", near)
	}
}

func TestRepointedRetransmissionsAreDeduplicated(t *testing.T) {
	// Retransmissions from MID pass through no further buffer, but the
	// receiver must still dedupe if both a late original and a
	// retransmission arrive.
	_, _, mid, rcv := repointPath(t, true, 2e-2)
	if mid.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions at 2% loss")
	}
	if rcv.Stats.Lost != 0 {
		t.Fatalf("lost %d", rcv.Stats.Lost)
	}
	// Every sequence delivered at most once to the application.
	if rcv.Stats.Delivered != 1500 {
		t.Fatalf("delivered %d (dups leaked through?)", rcv.Stats.Delivered)
	}
}

// TestRefusedTransitKeepsUpstreamPointer: a retransmission served by DTN1
// crosses MID again on its way down. While MID still holds that number it
// used to re-stash the packet over its own live entry — leaking the first
// copy out of the stash accounting — and repoint it regardless. Now the
// stash refuses it: MID counts nothing, and the packet travels on naming
// DTN1, the buffer that just proved it holds the packet. Once MID has let
// the number go, the same retransmission is adopted like any transit packet.
func TestRefusedTransitKeepsUpstreamPointer(t *testing.T) {
	nw := netsim.New(1)
	upAddr := wire.AddrFrom(10, 15, 0, 1, 1)
	dtn1Addr := wire.AddrFrom(10, 15, 1, 1, 1)
	midAddr := wire.AddrFrom(10, 15, 2, 1, 1)
	downAddr := wire.AddrFrom(10, 15, 3, 1, 1)
	exp := wire.NewExperimentID(4, 0)

	up, down := &netsim.Host{}, &netsim.Host{}
	upN := nw.AddNode("up", upAddr, up)
	downN := nw.AddNode("down", downAddr, down)
	dtn1 := NewBufferNode(nw, "dtn1", dtn1Addr, BufferConfig{
		Upgrade: dmtp.ModeWAN,
		Forward: downAddr, ForwardPort: 1,
		Routes: map[wire.Addr]int{upAddr: 0},
	})
	mid := NewBufferNode(nw, "mid", midAddr, BufferConfig{
		Upgrade: dmtp.ModeWAN,
		Forward: downAddr, ForwardPort: 1, StashTransit: true,
		Routes: map[wire.Addr]int{upAddr: 0, dtn1Addr: 0},
	})
	link := netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: time.Microsecond}
	nw.Connect(upN, dtn1.Node(), link)
	nw.Connect(dtn1.Node(), mid.Node(), link)
	nw.Connect(mid.Node(), downN, link)

	var arrived []wire.View
	down.Recv = func(f *netsim.Frame) { arrived = append(arrived, wire.View(f.Data)) }
	// pointerOfLast returns the retransmission pointer of the newest arrival.
	pointerOfLast := func() wire.Addr {
		t.Helper()
		ptr, err := arrived[len(arrived)-1].RetransmitBuffer()
		if err != nil {
			t.Fatal(err)
		}
		return ptr
	}
	control := func(dst wire.Addr, encode func([]byte) ([]byte, error)) {
		t.Helper()
		data, err := encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		downN.SendTo(dst, data)
		nw.Loop().Run()
	}
	nakSeq2 := wire.NAK{Experiment: exp, Requester: downAddr, Ranges: []wire.SeqRange{{From: 2, To: 2}}}

	h := wire.Header{ConfigID: dmtp.ModeBare.ConfigID, Experiment: exp}
	bare, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		upN.SendTo(dtn1Addr, append(bare[:len(bare):len(bare)], "payload"...))
	}
	nw.Loop().Run()
	before := mid.Stats()
	if len(arrived) != 3 || before.Repointed != 3 || before.Buffered != 3 || pointerOfLast() != midAddr {
		t.Fatalf("adoption: %d arrived, mid %+v", len(arrived), before)
	}

	control(dtn1Addr, nakSeq2.AppendTo)
	after := mid.Stats()
	if len(arrived) != 4 || dtn1.Stats().Retransmits != 1 {
		t.Fatalf("retransmission: %d arrived, dtn1 %+v", len(arrived), dtn1.Stats())
	}
	if after.Repointed != 3 || after.Buffered != 3 || after.Occupancy != before.Occupancy || after.Refused != 1 {
		t.Fatalf("mid re-adopted a number it holds:\nbefore %+v\nafter  %+v", before, after)
	}
	if ptr := pointerOfLast(); ptr != dtn1Addr {
		t.Fatalf("refused retransmission names %v, want its server %v", ptr, dtn1Addr)
	}

	ack := wire.Ack{Experiment: exp, CumulativeSeq: 3, Acker: downAddr}
	control(midAddr, ack.AppendTo)
	control(dtn1Addr, nakSeq2.AppendTo)
	if st := mid.Stats(); st.Repointed != 4 || st.Buffered != 4 || st.Refused != 1 || pointerOfLast() != midAddr {
		t.Fatalf("after MID let go of 1..3 the retransmission should be adopted: %+v, pointer %v", st, pointerOfLast())
	}
}
