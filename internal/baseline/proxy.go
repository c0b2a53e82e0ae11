package baseline

import (
	"repro/internal/netsim"
	"repro/internal/wire"
)

// SplitProxy terminates one TCP connection and relays complete messages
// onto a second — the connection termination and buffering that today's
// DAQ chain performs at the first line of servers and again at storage
// sites (paper Fig. 2 stages ② and ④, and §4.1's complaint that "TCP
// termination and buffering at ② is unsuitable for rapid inter-instrument
// coordination").
type SplitProxy struct {
	nw   *netsim.Network
	node *netsim.Node

	in  *TCPReceiver
	out *TCPSender

	// Relayed counts messages forwarded leg-to-leg.
	Relayed uint64
	// upstreamPort and downstreamPort route ACKs and data.
	upstreamPort, downstreamPort int
}

// NewSplitProxy creates a proxy node. The upstream leg (flowIn, from peer
// upstreamAddr) is terminated; messages are re-sent on the downstream leg
// (flowOut, toward dst). Port 0 must connect upstream, port 1 downstream.
func NewSplitProxy(nw *netsim.Network, name string, addr wire.Addr,
	upstream wire.Addr, flowIn uint16,
	dst wire.Addr, flowOut uint16, cfg TCPConfig) *SplitProxy {
	p := &SplitProxy{nw: nw, upstreamPort: 0, downstreamPort: 1}
	p.node = nw.AddNode(name, addr, p)
	p.in = newTCPReceiverOn(nw, p.node, upstream, flowIn)
	p.in.sendFn = func(dst wire.Addr, data []byte) { p.sendVia(p.upstreamPort, dst, data) }
	p.out = newTCPSenderOn(nw, p.node, dst, flowOut, cfg)
	p.out.sendFn = func(dst wire.Addr, data []byte) { p.sendVia(p.downstreamPort, dst, data) }
	p.in.OnMessage = func(m TCPMessage) {
		p.Relayed++
		p.out.Send(m.Payload)
	}
	return p
}

// Node returns the proxy's node.
func (p *SplitProxy) Node() *netsim.Node { return p.node }

// Out exposes the downstream sender (for congestion statistics).
func (p *SplitProxy) Out() *TCPSender { return p.out }

// Close closes the downstream leg once the upstream workload is done.
func (p *SplitProxy) Close() { p.out.Close() }

// Attach implements netsim.Handler.
func (p *SplitProxy) Attach(n *netsim.Node) { p.node = n }

// HandleFrame implements netsim.Handler: demultiplex by flow ID.
func (p *SplitProxy) HandleFrame(ingress *netsim.Port, f *netsim.Frame) {
	seg, err := DecodeSegment(f.Data)
	if err != nil {
		return
	}
	switch {
	case seg.Type == SegData && seg.FlowID == p.in.flow:
		p.in.OnData(seg)
	case seg.Type == SegAck && seg.FlowID == p.out.flow:
		p.out.OnAck(seg.Ack)
	}
}

// sendVia routes the embedded endpoints' transmissions out of the right
// proxy port: the terminated receiver ACKs upstream, the onward sender
// emits downstream.
func (p *SplitProxy) sendVia(port int, dst wire.Addr, data []byte) {
	p.node.Port(port).Send(&netsim.Frame{Src: p.node.Addr, Dst: dst, Data: data, Born: p.nw.Now()})
}
