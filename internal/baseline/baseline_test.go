package baseline

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/daq"
	"repro/internal/netsim"
	"repro/internal/wire"
)

func TestSegmentRoundTripQuick(t *testing.T) {
	f := func(typ uint8, flow uint16, seq, ack uint64, payload []byte) bool {
		if len(payload) > 0xFFFF {
			payload = payload[:0xFFFF]
		}
		s := Segment{Type: typ, FlowID: flow, Seq: seq, Ack: ack, Payload: payload}
		enc, err := s.AppendTo(nil)
		if err != nil {
			return false
		}
		got, err := DecodeSegment(enc)
		if err != nil {
			return false
		}
		return got.Type == typ && got.FlowID == flow && got.Seq == seq &&
			got.Ack == ack && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRejectsBadInput(t *testing.T) {
	if _, err := DecodeSegment([]byte{1, 2, 3}); err == nil {
		t.Fatal("short segment accepted")
	}
	s := Segment{Type: SegData, Payload: []byte("abc")}
	enc, _ := s.AppendTo(nil)
	enc[0] = 0x00
	if _, err := DecodeSegment(enc); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSegmentMagicIsDMTPControl(t *testing.T) {
	// Baseline segments must look like opaque control traffic to DMTP
	// elements so pipelines pass them through untouched.
	if SegMagic < wire.ControlBase {
		t.Fatalf("segment magic %#02x below DMTP control base", SegMagic)
	}
	s := Segment{Type: SegData, Payload: []byte("x")}
	enc, _ := s.AppendTo(nil)
	v := wire.View(enc)
	if _, err := v.Check(); err != nil {
		t.Fatalf("segment does not parse as DMTP core header: %v", err)
	}
	if !v.IsControl() {
		t.Fatal("segment not classified as control")
	}
}

// tcpPair wires sender ── link ── receiver.
func tcpPair(t *testing.T, seed int64, cfg TCPConfig, link netsim.LinkConfig) (*netsim.Network, *TCPSender, *TCPReceiver) {
	t.Helper()
	nw := netsim.New(seed)
	sAddr := wire.AddrFrom(10, 0, 0, 1, 5001)
	rAddr := wire.AddrFrom(10, 0, 0, 2, 5001)
	snd := NewTCPSender(nw, "tcp-snd", sAddr, rAddr, 1, cfg)
	rcv := NewTCPReceiver(nw, "tcp-rcv", rAddr, sAddr, 1)
	nw.Connect(snd.Node(), rcv.Node(), link)
	return nw, snd, rcv
}

func TestTCPDeliversMessagesInOrder(t *testing.T) {
	nw, snd, rcv := tcpPair(t, 1, TCPConfig{}, netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 5 * time.Millisecond})
	var got [][]byte
	rcv.OnMessage = func(m TCPMessage) { got = append(got, m.Payload) }
	want := [][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte("x"), 50000), []byte("tail")}
	for _, m := range want {
		snd.Send(m)
	}
	done := false
	snd.OnComplete = func() { done = true }
	snd.Close()
	nw.Loop().Run()
	if !done {
		t.Fatal("transfer never completed")
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d messages", len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("message %d corrupted", i)
		}
	}
	if snd.Stats.Retransmits != 0 {
		t.Fatalf("lossless path retransmitted %d", snd.Stats.Retransmits)
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	nw, snd, rcv := tcpPair(t, 2, Tuned(),
		netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 5 * time.Millisecond, LossProb: 0.02, QueueBytes: 1 << 24})
	var delivered int
	rcv.OnMessage = func(m TCPMessage) { delivered++ }
	const n = 500
	for i := 0; i < n; i++ {
		snd.Send(bytes.Repeat([]byte{byte(i)}, 4000))
	}
	done := false
	snd.OnComplete = func() { done = true }
	snd.Close()
	nw.Loop().Run()
	if !done {
		t.Fatalf("transfer stuck: outstanding=%d retrans=%d timeouts=%d",
			snd.Outstanding(), snd.Stats.Retransmits, snd.Stats.Timeouts)
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if snd.Stats.Retransmits == 0 {
		t.Fatal("no retransmissions despite loss")
	}
}

func TestTCPHOLBlockingAppearsUnderLoss(t *testing.T) {
	run := func(loss float64) time.Duration {
		nw, snd, rcv := tcpPair(t, 3, Tuned(),
			netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 10 * time.Millisecond, LossProb: loss, QueueBytes: 1 << 24})
		for i := 0; i < 400; i++ {
			snd.Send(bytes.Repeat([]byte{1}, 4000))
		}
		snd.Close()
		nw.Loop().Run()
		if rcv.Stats.Messages == 0 {
			t.Fatal("nothing delivered")
		}
		return time.Duration(rcv.HOLHist.Max())
	}
	clean, lossy := run(0), run(0.02)
	if lossy <= clean {
		t.Fatalf("loss should induce HOL blocking: clean=%v lossy=%v", clean, lossy)
	}
	if lossy < 5*time.Millisecond {
		t.Fatalf("HOL under loss only %v; expected at least a retransmission round trip", lossy)
	}
}

func TestTCPCongestionWindowGrowsAndShrinks(t *testing.T) {
	nw, snd, _ := tcpPair(t, 4, TCPConfig{InitCwnd: 2, MaxCwndSegments: 64},
		netsim.LinkConfig{RateBps: netsim.Gbps(1), Delay: time.Millisecond, QueueBytes: 1 << 24})
	for i := 0; i < 200; i++ {
		snd.Send(bytes.Repeat([]byte{1}, 8000))
	}
	snd.Close()
	start := snd.Cwnd()
	nw.Loop().RunFor(20 * time.Millisecond)
	grown := snd.Cwnd()
	if grown <= start {
		t.Fatalf("cwnd did not grow: %v -> %v", start, grown)
	}
	nw.Loop().Run()
}

func TestTCPSlowStartThenAIMD(t *testing.T) {
	// With a tiny ssthresh the window should grow slowly (additively)
	// compared to pure slow start.
	nwFast, sndFast, _ := tcpPair(t, 5, TCPConfig{InitCwnd: 2, SSThresh: 1024, MaxCwndSegments: 1024},
		netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: time.Millisecond, QueueBytes: 1 << 26})
	nwSlow, sndSlow, _ := tcpPair(t, 5, TCPConfig{InitCwnd: 2, SSThresh: 2, MaxCwndSegments: 1024},
		netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: time.Millisecond, QueueBytes: 1 << 26})
	for i := 0; i < 2000; i++ {
		sndFast.Send(bytes.Repeat([]byte{1}, 8000))
		sndSlow.Send(bytes.Repeat([]byte{1}, 8000))
	}
	nwFast.Loop().RunFor(30 * time.Millisecond)
	nwSlow.Loop().RunFor(30 * time.Millisecond)
	if sndFast.Cwnd() <= sndSlow.Cwnd() {
		t.Fatalf("slow start (%v) should outgrow AIMD (%v) early", sndFast.Cwnd(), sndSlow.Cwnd())
	}
}

func TestUDPSenderSinkAndLoss(t *testing.T) {
	nw := netsim.New(6)
	sAddr := wire.AddrFrom(10, 0, 0, 1, 1)
	kAddr := wire.AddrFrom(10, 0, 0, 2, 1)
	snd := NewUDPSender(nw, "udp-snd", sAddr, kAddr)
	sink := &netsim.Sink{}
	sinkNode := nw.AddNode("udp-sink", kAddr, sink)
	nw.Connect(snd.Node(), sinkNode, netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: time.Millisecond, LossProb: 0.1})
	snd.Stream(daq.NewGeneric(daq.GenericConfig{MessageSize: 1000, Interval: 10 * time.Microsecond, Count: 2000, Seed: 1}))
	nw.Loop().Run()
	if !snd.Done || snd.Sent != 2000 {
		t.Fatalf("sent %d done=%v", snd.Sent, snd.Done)
	}
	if sink.Count == 2000 || sink.Count < 1500 {
		t.Fatalf("received %d; loss should be ~10%%, never recovered", sink.Count)
	}
}

func TestSplitProxyRelaysEndToEnd(t *testing.T) {
	// src ──(TCP flow 1)── proxy ──(TCP flow 2)── dst: the Fig. 2 chain.
	nw := netsim.New(7)
	srcAddr := wire.AddrFrom(10, 0, 0, 1, 1)
	pxAddr := wire.AddrFrom(10, 0, 0, 2, 1)
	dstAddr := wire.AddrFrom(10, 0, 0, 3, 1)
	snd := NewTCPSender(nw, "src", srcAddr, pxAddr, 1, Tuned())
	px := NewSplitProxy(nw, "proxy", pxAddr, srcAddr, 1, dstAddr, 2, Tuned())
	rcv := NewTCPReceiver(nw, "dst", dstAddr, pxAddr, 2)
	nw.Connect(snd.Node(), px.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 100 * time.Microsecond})
	nw.Connect(px.Node(), rcv.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 20 * time.Millisecond, LossProb: 0.01, QueueBytes: 1 << 24})

	var got int
	rcv.OnMessage = func(m TCPMessage) { got++ }
	const n = 300
	for i := 0; i < n; i++ {
		snd.Send(bytes.Repeat([]byte{byte(i)}, 3000))
	}
	snd.OnComplete = func() { px.Close() }
	snd.Close()
	nw.Loop().Run()
	if got != n {
		t.Fatalf("relayed %d of %d (proxy relayed %d)", got, n, px.Relayed)
	}
	// The WAN leg took the loss; retransmissions originated at the proxy,
	// not the source.
	if px.Out().Stats.Retransmits == 0 {
		t.Fatal("proxy leg never retransmitted")
	}
	if snd.Stats.Retransmits != 0 {
		t.Fatalf("source retransmitted %d across a clean first leg", snd.Stats.Retransmits)
	}
}
