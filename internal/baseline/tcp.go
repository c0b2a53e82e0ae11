package baseline

import (
	"encoding/binary"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TCPConfig tunes the simulated TCP.
type TCPConfig struct {
	// MSS is the maximum segment payload; DAQ paths run jumbo frames.
	// Zero means 8960.
	MSS int
	// InitCwnd is the initial congestion window in segments; zero means 10.
	InitCwnd int
	// MaxCwndSegments caps the window (models socket buffer limits);
	// zero means 1024.
	MaxCwndSegments int
	// SSThresh is the initial slow-start threshold in segments; zero
	// means MaxCwndSegments.
	SSThresh int
	// RTOMin floors the retransmission timeout; zero means 10 ms.
	RTOMin time.Duration
}

// Tuned returns the heavily tuned DTN profile the paper describes
// operators using to reach tens of Gbps: jumbo MSS, a large initial
// window, and deep buffers (fasterdata-style tuning).
func Tuned() TCPConfig {
	return TCPConfig{MSS: 8960, InitCwnd: 64, MaxCwndSegments: 8192, RTOMin: 4 * time.Millisecond}
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.MSS == 0 {
		c.MSS = 8960
	}
	if c.InitCwnd == 0 {
		c.InitCwnd = 10
	}
	if c.MaxCwndSegments == 0 {
		c.MaxCwndSegments = 1024
	}
	if c.SSThresh == 0 {
		c.SSThresh = c.MaxCwndSegments
	}
	if c.RTOMin == 0 {
		c.RTOMin = 10 * time.Millisecond
	}
	return c
}

// TCPSenderStats are cumulative sender counters.
type TCPSenderStats struct {
	SegmentsSent   uint64
	BytesSent      uint64
	Retransmits    uint64
	Timeouts       uint64
	FastRetransmit uint64
	DupAcks        uint64
}

// TCPSender is the sending half of a simulated TCP connection. Create with
// NewTCPSender, feed messages with Send, then Close; OnComplete fires when
// every byte has been cumulatively acknowledged.
type TCPSender struct {
	cfg    TCPConfig
	nw     *netsim.Network
	node   *netsim.Node
	dst    wire.Addr
	flow   uint16
	sendFn func(dst wire.Addr, data []byte)

	Stats      TCPSenderStats
	OnComplete func()

	// Stream state. The buffer holds unacknowledged bytes; base is the
	// stream offset of buf[0].
	buf    []byte
	base   uint64 // == sndUna
	sndNxt uint64
	closed bool
	done   bool

	// Congestion control (Reno).
	cwnd     float64 // segments
	ssthresh float64
	dupacks  int

	// RTT estimation (Jacobson/Karhels) and RTO.
	srtt, rttvar time.Duration
	rto          time.Duration
	rtoTimer     sim.Timer
	rtoBackoff   uint
	// sampleSeq/sampleAt track one in-flight RTT measurement (Karn's rule:
	// never sample retransmitted data).
	sampleSeq uint64
	sampleAt  sim.Time
	sampling  bool
}

// NewTCPSender creates the sender endpoint and registers its node.
func NewTCPSender(nw *netsim.Network, name string, addr wire.Addr, dst wire.Addr, flow uint16, cfg TCPConfig) *TCPSender {
	cfg = cfg.withDefaults()
	s := &TCPSender{
		cfg:      cfg,
		nw:       nw,
		dst:      dst,
		flow:     flow,
		cwnd:     float64(cfg.InitCwnd),
		ssthresh: float64(cfg.SSThresh),
		rto:      200 * time.Millisecond,
	}
	s.node = nw.AddNode(name, addr, s)
	s.sendFn = s.node.SendTo
	return s
}

// AttachTCPSender creates a sender without its own node, for use inside a
// composite handler such as the split-TCP proxy. sendFn transmits frames.
func newTCPSenderOn(nw *netsim.Network, node *netsim.Node, dst wire.Addr, flow uint16, cfg TCPConfig) *TCPSender {
	cfg = cfg.withDefaults()
	s := &TCPSender{
		cfg: cfg, nw: nw, node: node, dst: dst, flow: flow,
		cwnd: float64(cfg.InitCwnd), ssthresh: float64(cfg.SSThresh),
		rto: 200 * time.Millisecond,
	}
	return s
}

// Node returns the sender's node.
func (s *TCPSender) Node() *netsim.Node { return s.node }

// Attach implements netsim.Handler.
func (s *TCPSender) Attach(n *netsim.Node) { s.node = n }

// HandleFrame implements netsim.Handler (ACK processing).
func (s *TCPSender) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	seg, err := DecodeSegment(f.Data)
	if err != nil || seg.Type != SegAck || seg.FlowID != s.flow {
		return
	}
	s.OnAck(seg.Ack)
}

// Send appends a delineated message to the stream.
func (s *TCPSender) Send(msg []byte) {
	if s.closed {
		panic("baseline: Send after Close")
	}
	var lenHdr [4]byte
	binary.BigEndian.PutUint32(lenHdr[:], uint32(len(msg)))
	s.buf = append(s.buf, lenHdr[:]...)
	s.buf = append(s.buf, msg...)
	s.pump()
}

// Close marks the end of the stream; OnComplete fires once fully acked.
func (s *TCPSender) Close() {
	s.closed = true
	s.maybeDone()
}

// Outstanding returns unacknowledged bytes in flight.
func (s *TCPSender) Outstanding() uint64 { return s.sndNxt - s.base }

// Cwnd returns the current congestion window in segments.
func (s *TCPSender) Cwnd() float64 { return s.cwnd }

// pump transmits new data allowed by the congestion window.
func (s *TCPSender) pump() {
	end := s.base + uint64(len(s.buf))
	wnd := uint64(s.cwnd) * uint64(s.cfg.MSS)
	for s.sndNxt < end && s.sndNxt-s.base < wnd {
		n := uint64(s.cfg.MSS)
		if rem := end - s.sndNxt; rem < n {
			n = rem
		}
		if budget := wnd - (s.sndNxt - s.base); budget < n {
			n = budget
		}
		if n == 0 {
			break
		}
		s.transmit(s.sndNxt, int(n), false)
		s.sndNxt += n
	}
	s.armRTO()
}

func (s *TCPSender) transmit(seq uint64, n int, isRetransmit bool) {
	off := seq - s.base
	payload := s.buf[off : off+uint64(n)]
	seg := Segment{Type: SegData, FlowID: s.flow, Seq: seq, Payload: payload}
	data, err := seg.AppendTo(make([]byte, 0, segHeaderLen+n))
	if err != nil {
		panic(err)
	}
	s.sendFn(s.dst, data)
	s.Stats.SegmentsSent++
	s.Stats.BytesSent += uint64(n)
	if isRetransmit {
		s.Stats.Retransmits++
		if s.sampling && seq <= s.sampleSeq {
			s.sampling = false // Karn: invalidate sample
		}
	} else if !s.sampling {
		s.sampling = true
		s.sampleSeq = seq
		s.sampleAt = s.nw.Now()
	}
}

// OnAck processes a cumulative acknowledgement.
func (s *TCPSender) OnAck(ack uint64) {
	if s.done {
		return
	}
	if ack <= s.base {
		if ack == s.base && s.Outstanding() > 0 {
			s.dupacks++
			s.Stats.DupAcks++
			if s.dupacks == 3 {
				s.fastRetransmit()
			}
		}
		return
	}
	// New data acknowledged.
	if s.sampling && ack > s.sampleSeq {
		s.rttSample(s.nw.Now().Sub(s.sampleAt))
		s.sampling = false
	}
	acked := ack - s.base
	s.buf = s.buf[acked:]
	s.base = ack
	s.dupacks = 0
	s.rtoBackoff = 0
	// Window growth: slow start below ssthresh, else AIMD.
	if s.cwnd < s.ssthresh {
		s.cwnd += float64(acked) / float64(s.cfg.MSS)
	} else {
		s.cwnd += float64(acked) / float64(s.cfg.MSS) / s.cwnd
	}
	if max := float64(s.cfg.MaxCwndSegments); s.cwnd > max {
		s.cwnd = max
	}
	s.armRTO()
	s.pump()
	s.maybeDone()
}

func (s *TCPSender) fastRetransmit() {
	s.Stats.FastRetransmit++
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = s.ssthresh
	n := s.cfg.MSS
	if outstanding := s.Outstanding(); outstanding < uint64(n) {
		n = int(outstanding)
	}
	if n > 0 {
		s.transmit(s.base, n, true)
	}
}

func (s *TCPSender) rttSample(m time.Duration) {
	if s.srtt == 0 {
		s.srtt = m
		s.rttvar = m / 2
	} else {
		d := s.srtt - m
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + m) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.RTOMin {
		s.rto = s.cfg.RTOMin
	}
}

func (s *TCPSender) armRTO() {
	s.rtoTimer.Stop()
	s.rtoTimer = sim.Timer{}
	if s.Outstanding() == 0 {
		return
	}
	rto := s.rto << s.rtoBackoff
	s.rtoTimer = s.nw.Loop().After(rto, s.onRTO)
}

func (s *TCPSender) onRTO() {
	s.rtoTimer = sim.Timer{}
	if s.Outstanding() == 0 {
		return
	}
	s.Stats.Timeouts++
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	if s.rtoBackoff < 6 {
		s.rtoBackoff++
	}
	n := s.cfg.MSS
	if outstanding := s.Outstanding(); outstanding < uint64(n) {
		n = int(outstanding)
	}
	s.transmit(s.base, n, true)
	s.armRTO()
}

func (s *TCPSender) maybeDone() {
	if s.closed && !s.done && len(s.buf) == 0 {
		s.done = true
		s.rtoTimer.Stop()
		s.rtoTimer = sim.Timer{}
		if s.OnComplete != nil {
			s.OnComplete()
		}
	}
}

// TCPReceiverStats are cumulative receiver counters.
type TCPReceiverStats struct {
	SegmentsReceived uint64
	BytesReceived    uint64
	OutOfOrder       uint64
	Duplicates       uint64
	Messages         uint64
}

// TCPMessage is one delineated message delivered off the bytestream.
type TCPMessage struct {
	Payload []byte
	// HOLDelay is how long the fully received message waited for earlier
	// stream bytes before in-order delivery — the head-of-line blocking
	// the paper charges against the bytestream abstraction (§4.1).
	HOLDelay time.Duration
}

type oooSeg struct {
	data    []byte
	arrived sim.Time
}

type chunkMark struct {
	upTo    uint64 // stream offset just past this chunk
	arrived sim.Time
}

// TCPReceiver is the receiving half: it reassembles the bytestream,
// acknowledges cumulatively, and parses delineated messages, measuring
// head-of-line blocking.
type TCPReceiver struct {
	nw     *netsim.Network
	node   *netsim.Node
	peer   wire.Addr
	flow   uint16
	sendFn func(dst wire.Addr, data []byte)

	Stats     TCPReceiverStats
	HOLHist   *telemetry.Histogram
	OnMessage func(m TCPMessage)

	rcvNxt   uint64
	ooo      map[uint64]oooSeg
	assembly []byte
	asmBase  uint64 // stream offset of assembly[0]
	chunks   []chunkMark
}

// NewTCPReceiver creates the receiver endpoint and registers its node.
func NewTCPReceiver(nw *netsim.Network, name string, addr wire.Addr, peer wire.Addr, flow uint16) *TCPReceiver {
	r := &TCPReceiver{
		nw:      nw,
		peer:    peer,
		flow:    flow,
		ooo:     make(map[uint64]oooSeg),
		HOLHist: telemetry.NewHistogram(),
	}
	r.node = nw.AddNode(name, addr, r)
	r.sendFn = r.node.SendTo
	return r
}

func newTCPReceiverOn(nw *netsim.Network, node *netsim.Node, peer wire.Addr, flow uint16) *TCPReceiver {
	r := &TCPReceiver{
		nw: nw, node: node, peer: peer, flow: flow,
		ooo: make(map[uint64]oooSeg), HOLHist: telemetry.NewHistogram(),
	}
	return r
}

// Node returns the receiver's node.
func (r *TCPReceiver) Node() *netsim.Node { return r.node }

// Attach implements netsim.Handler.
func (r *TCPReceiver) Attach(n *netsim.Node) { r.node = n }

// HandleFrame implements netsim.Handler.
func (r *TCPReceiver) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	seg, err := DecodeSegment(f.Data)
	if err != nil || seg.Type != SegData || seg.FlowID != r.flow {
		return
	}
	r.OnData(seg)
}

// OnData ingests one data segment (exported for composite handlers).
func (r *TCPReceiver) OnData(seg *Segment) {
	r.Stats.SegmentsReceived++
	now := r.nw.Now()
	end := seg.Seq + uint64(len(seg.Payload))
	switch {
	case end <= r.rcvNxt:
		r.Stats.Duplicates++
	case seg.Seq > r.rcvNxt:
		r.Stats.OutOfOrder++
		if _, dup := r.ooo[seg.Seq]; !dup {
			r.ooo[seg.Seq] = oooSeg{data: append([]byte(nil), seg.Payload...), arrived: now}
		}
	default:
		// In-order (possibly partially duplicate) segment.
		fresh := seg.Payload[r.rcvNxt-seg.Seq:]
		r.ingest(fresh, now)
		r.drainOOO()
		r.parse(now)
	}
	r.sendAck()
}

// drainOOO pulls buffered out-of-order segments into the assembly once
// they become contiguous. Retransmitted segments need not align with the
// original segment boundaries (an MSS-sized retransmission can cover
// several original sends), so this scans for any stored segment
// overlapping rcvNxt rather than exact-matching offsets.
func (r *TCPReceiver) drainOOO() {
	for {
		advanced := false
		for seq, o := range r.ooo {
			end := seq + uint64(len(o.data))
			switch {
			case end <= r.rcvNxt:
				delete(r.ooo, seq) // fully superseded
			case seq <= r.rcvNxt:
				delete(r.ooo, seq)
				r.ingest(o.data[r.rcvNxt-seq:], o.arrived)
				advanced = true
			}
		}
		if !advanced {
			return
		}
	}
}

func (r *TCPReceiver) ingest(data []byte, arrived sim.Time) {
	r.assembly = append(r.assembly, data...)
	r.rcvNxt += uint64(len(data))
	r.Stats.BytesReceived += uint64(len(data))
	r.chunks = append(r.chunks, chunkMark{upTo: r.rcvNxt, arrived: arrived})
}

// parse extracts complete delineated messages from the assembly buffer.
func (r *TCPReceiver) parse(now sim.Time) {
	for {
		if len(r.assembly) < 4 {
			return
		}
		n := binary.BigEndian.Uint32(r.assembly[:4])
		if uint64(len(r.assembly)) < 4+uint64(n) {
			return
		}
		msgStart := r.asmBase
		msgEnd := msgStart + 4 + uint64(n)
		payload := append([]byte(nil), r.assembly[4:4+n]...)
		r.assembly = r.assembly[4+n:]
		r.asmBase = msgEnd
		// Readiness time: the latest arrival among chunks overlapping
		// the message; HOL delay is delivery minus readiness.
		for len(r.chunks) > 0 && r.chunks[0].upTo <= msgStart {
			r.chunks = r.chunks[1:] // entirely before this message
		}
		var ready sim.Time
		for _, c := range r.chunks {
			if c.arrived > ready {
				ready = c.arrived
			}
			if c.upTo >= msgEnd {
				break
			}
		}
		for len(r.chunks) > 0 && r.chunks[0].upTo < msgEnd {
			r.chunks = r.chunks[1:] // consumed by this message
		}
		hol := now.Sub(ready)
		if hol < 0 {
			hol = 0
		}
		r.Stats.Messages++
		r.HOLHist.ObserveDuration(hol)
		if r.OnMessage != nil {
			r.OnMessage(TCPMessage{Payload: payload, HOLDelay: hol})
		}
	}
}

func (r *TCPReceiver) sendAck() {
	seg := Segment{Type: SegAck, FlowID: r.flow, Ack: r.rcvNxt}
	data, err := seg.AppendTo(make([]byte, 0, segHeaderLen))
	if err != nil {
		return
	}
	r.sendFn(r.peer, data)
}
