package baseline

import (
	"repro/internal/daq"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// UDPSender streams DAQ records as bare fire-and-forget datagrams — how
// DUNE carries data inside its DAQ network today (paper §4). Each record's
// framed DAQ message is the entire datagram payload.
type UDPSender struct {
	nw   *netsim.Network
	node *netsim.Node
	dst  wire.Addr

	// Sent counts emitted datagrams.
	Sent uint64
	// Done is set when the workload is exhausted.
	Done bool
	// OnDone runs at exhaustion if non-nil.
	OnDone func()

	src daq.Source
}

// NewUDPSender creates the sender and registers its node.
func NewUDPSender(nw *netsim.Network, name string, addr, dst wire.Addr) *UDPSender {
	s := &UDPSender{nw: nw, dst: dst}
	s.node = nw.AddNode(name, addr, s)
	return s
}

// Node returns the sender's node.
func (s *UDPSender) Node() *netsim.Node { return s.node }

// Attach implements netsim.Handler.
func (s *UDPSender) Attach(n *netsim.Node) { s.node = n }

// HandleFrame implements netsim.Handler: UDP senders ignore input.
func (s *UDPSender) HandleFrame(*netsim.Port, *netsim.Frame) {}

// Stream schedules the workload.
func (s *UDPSender) Stream(src daq.Source) {
	s.src = src
	s.next()
}

func (s *UDPSender) next() {
	rec, ok := s.src.Next()
	if !ok {
		s.Done = true
		if s.OnDone != nil {
			s.OnDone()
		}
		return
	}
	at := sim.Time(rec.At)
	if at < s.nw.Now() {
		at = s.nw.Now()
	}
	s.nw.Loop().At(at, func() {
		s.node.SendTo(s.dst, rec.Data)
		s.Sent++
		s.next()
	})
}
