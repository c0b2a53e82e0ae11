// Package netsim is a discrete-event packet network simulator: links with
// configurable bandwidth, propagation delay and corruption loss; drop-tail
// and deadline-aware egress queues; hosts; and static routers. It stands in
// for the paper's physical substrate — the instrument DAQ Ethernet, the
// 10–100 ms RTT WAN, and the campus networks of Figs. 1–4 — so that
// experiments run on a laptop with exactly reproducible results.
//
// The simulator carries DMTP (or baseline TCP/UDP) packets as opaque frame
// payloads; addressing is out of band in the frame (wire.EncapNone), the
// way a P4 pipeline would see packets after parsing the carrier header.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Frame is a packet in flight through the simulated network.
type Frame struct {
	Src, Dst wire.Addr
	// Data is the serialized DMTP (or baseline transport) packet.
	Data []byte
	// Born is when the frame was first sent, for latency accounting.
	Born sim.Time
	// Hops counts forwarding elements traversed, guarding against loops.
	Hops int
}

// WireBytes returns the frame's size on the wire including the per-frame
// link overhead (Ethernet header + CRC + preamble + IPG equivalent).
func (f *Frame) WireBytes(overhead int) int { return len(f.Data) + overhead }

// MaxHops bounds frame forwarding to catch routing loops in topologies.
const MaxHops = 32

// DefaultOverhead is the default per-frame link overhead in bytes:
// 14 (Ethernet) + 4 (FCS) + 8 (preamble) + 12 (inter-packet gap).
const DefaultOverhead = 38

// Handler is the behaviour attached to a Node: a host transport endpoint, a
// router, or a programmable pipeline (internal/p4sim).
type Handler interface {
	// Attach is invoked once when the node joins the network.
	Attach(n *Node)
	// HandleFrame is invoked for every frame delivered to the node.
	// ingress is the port the frame arrived on.
	HandleFrame(ingress *Port, f *Frame)
}

// Node is a network element: a host NIC or a switch/router chassis.
type Node struct {
	Name    string
	Addr    wire.Addr // primary address; may be zero for pure switches
	Ports   []*Port
	Handler Handler
	Net     *Network
}

// Port returns the node's i'th port, panicking on a bad index with a
// message naming the node (topology bugs should fail loudly).
func (n *Node) Port(i int) *Port {
	if i < 0 || i >= len(n.Ports) {
		panic(fmt.Sprintf("netsim: node %q has %d ports, want port %d", n.Name, len(n.Ports), i))
	}
	return n.Ports[i]
}

// Send transmits a frame out of the node's only port. It panics if the node
// has more than one port (then the caller must choose a port explicitly).
func (n *Node) Send(f *Frame) {
	if len(n.Ports) != 1 {
		panic(fmt.Sprintf("netsim: node %q has %d ports; use Port(i).Send", n.Name, len(n.Ports)))
	}
	n.Ports[0].Send(f)
}

// SendTo builds and transmits a frame from this node's address.
func (n *Node) SendTo(dst wire.Addr, data []byte) {
	n.Send(&Frame{Src: n.Addr, Dst: dst, Data: data, Born: n.Net.Now()})
}

// PortStats are cumulative per-port counters.
type PortStats struct {
	TxFrames, TxBytes  uint64
	RxFrames, RxBytes  uint64
	DropsQueueFull     uint64
	DropsAgedEvicted   uint64 // frames evicted by the deadline-aware AQM
	DropsCorrupt       uint64 // frames lost to simulated bit corruption
	DropsRandom        uint64 // frames lost to the direct loss probability
	DropsFault         uint64 // frames dropped by the injected fault plan
	FaultCorrupted     uint64 // frames bit-flipped by the fault plan
	FaultDuplicated    uint64 // frames duplicated by the fault plan
	FaultDelayed       uint64 // frames delayed (reordered) by the fault plan
	QueueHighWatermark int
	BusyTime           time.Duration // cumulative serialization time
}

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	// RateBps is the line rate in bits per second. Must be positive.
	RateBps float64
	// Delay is the propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per frame.
	// Nonzero jitter reorders frames — the condition the DMTP receiver's
	// NAK delay (reorder tolerance) exists for.
	Jitter time.Duration
	// BER is the per-bit corruption probability; a corrupted frame is
	// dropped at the receiver (modelling an FCS failure), as happens to
	// DAQ traffic on capacity-planned WANs (paper §4: "It can
	// occasionally lose packets from corruption").
	BER float64
	// LossProb drops frames uniformly at random, for controlled
	// loss-sweep experiments.
	LossProb float64
	// QueueBytes is the egress queue capacity; 0 means 1 MiB.
	QueueBytes int
	// Overhead is per-frame wire overhead in bytes; 0 means DefaultOverhead.
	Overhead int
	// DeadlineAware enables the aged-frame-first eviction policy: when
	// the queue is full, a queued DMTP frame whose aged flag is set is
	// evicted before the incoming frame is dropped (paper §5.3: explicit
	// transport deadlines "provide … an input to active queue management").
	DeadlineAware bool
	// Fault, when non-nil, injects scripted faults (drop bursts, reorder,
	// duplication, corruption, flaps) per frame at delivery time — see
	// internal/faults for the deterministic plan that normally backs it.
	Fault FaultFunc
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.QueueBytes == 0 {
		c.QueueBytes = 1 << 20
	}
	if c.Overhead == 0 {
		c.Overhead = DefaultOverhead
	}
	return c
}

// Port is one end of a link: an egress queue plus serializer, and the
// ingress delivery point for the peer's transmissions.
type Port struct {
	Node  *Node
	Index int
	Peer  *Port
	Cfg   LinkConfig
	Stats PortStats

	queue      []*Frame
	queueBytes int
	busy       bool
}

// Send enqueues a frame for transmission out of this port, serializing at
// line rate and delivering to the peer after the propagation delay.
func (p *Port) Send(f *Frame) {
	if p.Peer == nil {
		panic(fmt.Sprintf("netsim: port %d of %q is not connected", p.Index, p.Node.Name))
	}
	size := f.WireBytes(p.Cfg.Overhead)
	if p.queueBytes+size > p.Cfg.QueueBytes {
		if p.Cfg.DeadlineAware && p.evictAged() && p.queueBytes+size <= p.Cfg.QueueBytes {
			// Space reclaimed from an aged frame; fall through to enqueue.
		} else {
			p.Stats.DropsQueueFull++
			p.Node.Net.observeDrop(p, f)
			return
		}
	}
	p.queue = append(p.queue, f)
	p.queueBytes += size
	if len(p.queue) > p.Stats.QueueHighWatermark {
		p.Stats.QueueHighWatermark = len(p.queue)
	}
	if !p.busy {
		p.transmitNext()
	}
}

// QueueDepth returns the current number of queued frames.
func (p *Port) QueueDepth() int { return len(p.queue) }

// evictAged drops the first queued frame whose DMTP aged flag is set,
// returning whether an eviction happened.
func (p *Port) evictAged() bool {
	for i, qf := range p.queue {
		v := wire.View(qf.Data)
		if _, err := v.Check(); err != nil || v.IsControl() {
			continue
		}
		age, err := v.Age()
		if err != nil || !age.Aged() {
			continue
		}
		p.queueBytes -= qf.WireBytes(p.Cfg.Overhead)
		p.queue = append(p.queue[:i], p.queue[i+1:]...)
		p.Stats.DropsAgedEvicted++
		p.Node.Net.observeDrop(p, qf)
		return true
	}
	return false
}

func (p *Port) transmitNext() {
	if len(p.queue) == 0 {
		p.busy = false
		return
	}
	p.busy = true
	f := p.queue[0]
	p.queue = p.queue[1:]
	size := f.WireBytes(p.Cfg.Overhead)
	p.queueBytes -= size
	serialize := time.Duration(float64(size*8) / p.Cfg.RateBps * float64(time.Second))
	p.Stats.BusyTime += serialize
	net := p.Node.Net
	op := net.getOp(&net.txFree, (*linkOp).runTx)
	op.port, op.f, op.size = p, f, size
	net.loop.After(serialize, op.run)
}

func (p *Port) deliver(f *Frame, size int) {
	net := p.Node.Net
	var extra time.Duration
	if p.Cfg.Fault != nil {
		d := p.Cfg.Fault(net.Now(), f)
		if d.Drop {
			p.Stats.DropsFault++
			net.observeDrop(p, f)
			return
		}
		if d.CorruptBit >= 0 && len(f.Data) > 0 {
			// Corrupt a copy: the original bytes may alias an upstream
			// retransmission buffer, which must keep the clean packet.
			cp := *f
			cp.Data = append([]byte(nil), f.Data...)
			bit := d.CorruptBit % (len(cp.Data) * 8)
			cp.Data[bit/8] ^= 1 << (bit % 8)
			f = &cp
			p.Stats.FaultCorrupted++
		}
		if d.Duplicate {
			p.Stats.FaultDuplicated++
			dup := *f
			dup.Data = append([]byte(nil), f.Data...)
			p.propagate(&dup, size, p.Cfg.Delay+d.ExtraDelay+time.Microsecond)
		}
		if d.ExtraDelay > 0 {
			p.Stats.FaultDelayed++
			extra = d.ExtraDelay
		}
	}
	if p.Cfg.LossProb > 0 && net.rng.Float64() < p.Cfg.LossProb {
		p.Stats.DropsRandom++
		net.observeDrop(p, f)
		return
	}
	if p.Cfg.BER > 0 {
		// Probability the frame survives size*8 independent bit trials.
		pSurvive := 1.0
		bits := float64(size * 8)
		// (1-BER)^bits via exp/log would drag in math; iterate cheaply
		// using the exact complement for small BER: P(corrupt) ≈ 1-(1-BER)^bits.
		pSurvive = pow1m(p.Cfg.BER, bits)
		if net.rng.Float64() > pSurvive {
			p.Stats.DropsCorrupt++
			net.observeDrop(p, f)
			return
		}
	}
	delay := p.Cfg.Delay + extra
	if p.Cfg.Jitter > 0 {
		delay += time.Duration(net.rng.Int63n(int64(p.Cfg.Jitter)))
	}
	p.propagate(f, size, delay)
}

// propagate delivers f to the peer after delay, counting ingress stats.
func (p *Port) propagate(f *Frame, size int, delay time.Duration) {
	net := p.Node.Net
	op := net.getOp(&net.rxFree, (*linkOp).runRx)
	op.port, op.f, op.size = p, f, size
	net.loop.After(delay, op.run)
}

// linkOp is a pooled per-link packet envelope: it carries a frame through a
// scheduled link stage (serialization completion or propagation arrival)
// without allocating a fresh closure per frame. The run closure is bound to
// the op once, when the op is first heap-allocated; afterwards the op cycles
// through a per-network free list, so the per-frame transmit and deliver
// schedules are allocation-free in steady state.
type linkOp struct {
	port *Port
	f    *Frame
	size int
	run  func() // == method value of runTx or runRx, built once
	next *linkOp
}

// release clears the op's frame references and returns it to its free list
// before the op's work runs, so re-entrant scheduling (transmitNext inside
// runTx) can reuse it immediately.
func (o *linkOp) release(head **linkOp) (p *Port, f *Frame, size int) {
	p, f, size = o.port, o.f, o.size
	o.port, o.f = nil, nil
	o.next = *head
	*head = o
	return p, f, size
}

// runTx fires when a frame finishes serializing out of its egress port.
func (o *linkOp) runTx() {
	p, f, size := o.release(&o.port.Node.Net.txFree)
	p.Stats.TxFrames++
	p.Stats.TxBytes += uint64(size)
	p.deliver(f, size)
	p.transmitNext()
}

// runRx fires when a frame arrives at the peer after propagation.
func (o *linkOp) runRx() {
	p, f, size := o.release(&o.port.Node.Net.rxFree)
	peer := p.Peer
	peer.Stats.RxFrames++
	peer.Stats.RxBytes += uint64(size)
	f.Hops++
	if f.Hops > MaxHops {
		panic(fmt.Sprintf("netsim: frame exceeded %d hops (routing loop?) at %q", MaxHops, peer.Node.Name))
	}
	peer.Node.Handler.HandleFrame(peer, f)
}

// pow1m computes (1-p)^n for small p without importing math.Pow precision
// concerns: it uses exp(n*log1p(-p)) via a short series adequate for BER
// magnitudes (≤1e-3) and frame sizes (≤1e5 bits).
func pow1m(p, n float64) float64 {
	// log(1-p) ≈ -p - p²/2 - p³/3 for small p.
	l := -(p + p*p/2 + p*p*p/3)
	x := n * l
	// exp(x) for x in (-∞, 0]; series is fine for |x| small, and for large
	// |x| the survival probability is effectively zero anyway.
	if x < -30 {
		return 0
	}
	// exp via squaring: exp(x) = (exp(x/2^k))^(2^k) with small-argument series.
	k := 0
	for x < -1e-3 && k < 40 {
		x /= 2
		k++
	}
	e := 1 + x + x*x/2 + x*x*x/6
	for i := 0; i < k; i++ {
		e *= e
	}
	return e
}

// FaultDecision is a fault-injection verdict for one frame, produced by a
// FaultFunc (normally an adapter over a faults.Plan).
type FaultDecision struct {
	// Drop discards the frame; Kind is a label for the injecting layer's
	// own accounting (netsim only counts DropsFault).
	Drop bool
	Kind string
	// Duplicate delivers the frame twice.
	Duplicate bool
	// CorruptBit, when ≥ 0, flips that bit (mod frame length) in a copy
	// of the frame before delivery.
	CorruptBit int
	// ExtraDelay postpones this frame's delivery, reordering it past
	// later frames on the link.
	ExtraDelay time.Duration
}

// FaultFunc is consulted once per frame at delivery time, on the virtual
// clock. It runs before the link's own stochastic loss models, so scripted
// faults are exact regardless of LossProb/BER settings.
type FaultFunc func(now sim.Time, f *Frame) FaultDecision

// DropObserver receives every dropped frame, letting experiments account
// for losses without scraping per-port counters.
type DropObserver func(p *Port, f *Frame)

// Network owns the event loop, the RNG, and the topology.
type Network struct {
	loop   *sim.Loop
	rng    *rand.Rand
	nodes  map[string]*Node
	byAddr map[wire.Addr]*Node
	onDrop []DropObserver

	// txFree and rxFree recycle the per-frame link ops; the loop is
	// single-threaded, so the lists need no synchronisation.
	txFree *linkOp
	rxFree *linkOp
}

// getOp pops an op from the given free list, or heap-allocates one with its
// run closure bound (the only allocation; every later cycle reuses it).
func (n *Network) getOp(head **linkOp, run func(*linkOp)) *linkOp {
	if op := *head; op != nil {
		*head = op.next
		op.next = nil
		return op
	}
	op := &linkOp{}
	op.run = func() { run(op) }
	return op
}

// New creates a network with a deterministic RNG seeded by seed.
func New(seed int64) *Network {
	return &Network{
		loop:   sim.NewLoop(),
		rng:    rand.New(rand.NewSource(seed)),
		nodes:  make(map[string]*Node),
		byAddr: make(map[wire.Addr]*Node),
	}
}

// Loop exposes the event loop for scheduling experiment logic.
func (n *Network) Loop() *sim.Loop { return n.loop }

// Now returns current virtual time.
func (n *Network) Now() sim.Time { return n.loop.Now() }

// Rand exposes the deterministic RNG (for workload generators that should
// share the experiment seed).
func (n *Network) Rand() *rand.Rand { return n.rng }

// OnDrop registers a drop observer.
func (n *Network) OnDrop(fn DropObserver) { n.onDrop = append(n.onDrop, fn) }

func (n *Network) observeDrop(p *Port, f *Frame) {
	for _, fn := range n.onDrop {
		fn(p, f)
	}
}

// AddNode creates a node with the given name, address and behaviour.
// Names and non-zero addresses must be unique.
func (n *Network) AddNode(name string, addr wire.Addr, h Handler) *Node {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node name %q", name))
	}
	node := &Node{Name: name, Addr: addr, Handler: h, Net: n}
	n.nodes[name] = node
	if !addr.IsZero() {
		if _, dup := n.byAddr[addr]; dup {
			panic(fmt.Sprintf("netsim: duplicate node address %v", addr))
		}
		n.byAddr[addr] = node
	}
	h.Attach(node)
	return node
}

// NodeByName returns a node by name, or nil.
func (n *Network) NodeByName(name string) *Node { return n.nodes[name] }

// NodeByAddr returns a node by primary address, or nil.
func (n *Network) NodeByAddr(a wire.Addr) *Node { return n.byAddr[a] }

// Connect joins a and b with a symmetric link configured by cfg, returning
// the two new ports (a's, then b's).
func (n *Network) Connect(a, b *Node, cfg LinkConfig) (*Port, *Port) {
	return n.ConnectAsym(a, b, cfg, cfg)
}

// ConnectAsym joins a and b with per-direction configurations: ab governs
// frames a→b, ba governs b→a.
func (n *Network) ConnectAsym(a, b *Node, ab, ba LinkConfig) (*Port, *Port) {
	ab, ba = ab.withDefaults(), ba.withDefaults()
	if ab.RateBps <= 0 || ba.RateBps <= 0 {
		panic("netsim: link rate must be positive")
	}
	pa := &Port{Node: a, Index: len(a.Ports), Cfg: ab}
	pb := &Port{Node: b, Index: len(b.Ports), Cfg: ba}
	pa.Peer, pb.Peer = pb, pa
	a.Ports = append(a.Ports, pa)
	b.Ports = append(b.Ports, pb)
	return pa, pb
}

// Gbps converts gigabits per second to the bits-per-second rate LinkConfig
// expects.
func Gbps(g float64) float64 { return g * 1e9 }
