package live

// Kernel-batched UDP datapath. The live roles move packets in bursts —
// the sender's flush ring, the relay's ingest/forward loop, the
// receiver's recv loop — but the seed datapath still paid one syscall
// per packet, which dominates live-substrate cost long before bandwidth
// does. batchConn amortizes that: on Linux it drains and fills whole
// bursts with recvmmsg/sendmmsg and coalesces same-destination runs of
// equal-size packets with UDP GSO/GRO (one kernel traversal for up to
// 64 wire packets); everywhere else — and under fault middleware, which
// must observe every packet individually — it degrades to a portable
// loop over the single-datagram API, so every platform keeps working.
//
// The kernel path is engaged automatically: each socket is probed at
// setup (sendmmsg/recvmmsg presence, UDP_SEGMENT/UDP_GRO sockopts) and
// any feature the kernel refuses — at probe time or mid-run — drops out
// gracefully, counted in dmtp.live.batch.fallbacks. The batch ring owns
// a fixed set of pooled 64 KiB wire buffers for its lifetime; a received
// packet stays where the kernel wrote it until the next ReadBatch, and
// the roles use exactly that window — the relay's forward queues and the
// receiver's delivered payloads point into the ring and are flushed
// before the role reads again — so nothing is copied out of it and
// nothing allocated, and no view of it outlives its burst.

import (
	"net"
	"net/netip"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// batchRingSize is the number of datagrams moved per batched syscall —
// the recvmmsg ring depth and the sendmmsg ceiling per call.
const batchRingSize = 32

// maxGSOSegs bounds the wire packets coalesced into one GSO
// super-datagram (the kernel's UDP_MAX_SEGMENTS is 64).
const maxGSOSegs = 64

// maxGSOBytes bounds the total payload of one GSO super-datagram; the
// kernel rejects GSO sends whose segmented payload exceeds what a
// single UDP datagram could carry (65507 bytes — kept just under).
const maxGSOBytes = 65000

// readBufSize is the per-slot receive buffer size: the largest UDP
// datagram the live path accepts, which is also what one GRO-coalesced
// super-datagram can occupy.
const readBufSize = 64 << 10

// BatchCaps reports which kernel batching features a socket ended up
// with after capability probing. The zero value means the portable
// loop-over-single-syscall fallback is in use.
type BatchCaps struct {
	// Mmsg is true when recvmmsg/sendmmsg move whole bursts per syscall.
	Mmsg bool
	// GSO is true when equal-size same-destination runs are coalesced
	// into UDP_SEGMENT super-datagrams on send.
	GSO bool
	// GRO is true when UDP_GRO is enabled on receive, so the kernel may
	// deliver coalesced runs that ReadBatch splits back into packets.
	GRO bool
}

// BatchStats is a point-in-time snapshot of one role's batch-datapath
// counters (see the dmtp.live.batch.* metric family).
type BatchStats struct {
	// Syscalls counts batched send/recv syscalls issued on the kernel
	// fast path (a GSO super-send is one syscall).
	Syscalls uint64
	// SentPackets counts wire packets written through WriteBatch, on
	// either path.
	SentPackets uint64
	// RecvPackets counts wire packets surfaced by ReadBatch, after GRO
	// splitting, on either path.
	RecvPackets uint64
	// GSOSegments counts wire packets that rode a GSO super-datagram.
	GSOSegments uint64
	// GROSplits counts wire packets recovered by splitting
	// GRO-coalesced datagrams at their segment boundaries.
	GROSplits uint64
	// Fallbacks counts batch operations served by the portable
	// loop-over-single-syscall path (non-Linux builds, fault-wrapped
	// sockets, or a kernel that refused a feature mid-run).
	Fallbacks uint64
}

// batchInstruments are the registry instruments behind the
// dmtp.live.batch.* metric family, installed by RegisterMetrics
// (nil until then — recording is skipped).
type batchInstruments struct {
	perSyscall *metrics.Histogram // packets moved per batched syscall
	gsoSegs    *metrics.Counter
	groSplits  *metrics.Counter
	fallbacks  *metrics.Counter
}

// batchStats is the always-on atomic counter set shared by a role and
// its batchConns (a sender's batchConn is rebuilt on redial; the stats
// survive). The registry instruments are attached late and atomically
// so the read/write loops never race RegisterMetrics.
type batchStats struct {
	syscalls  atomic.Uint64
	sentPkts  atomic.Uint64
	recvPkts  atomic.Uint64
	gsoSegs   atomic.Uint64
	groSplits atomic.Uint64
	fallbacks atomic.Uint64
	inst      atomic.Pointer[batchInstruments]
}

// snapshot returns the exported stats view.
func (s *batchStats) snapshot() BatchStats {
	return BatchStats{
		Syscalls:    s.syscalls.Load(),
		SentPackets: s.sentPkts.Load(),
		RecvPackets: s.recvPkts.Load(),
		GSOSegments: s.gsoSegs.Load(),
		GROSplits:   s.groSplits.Load(),
		Fallbacks:   s.fallbacks.Load(),
	}
}

// install attaches the dmtp.live.batch.* instruments from reg. Roles
// sharing one registry share the instruments (get-or-create), so a
// whole pipeline's batching efficiency aggregates naturally.
func (s *batchStats) install(reg *metrics.Registry) {
	s.inst.Store(&batchInstruments{
		perSyscall: reg.Histogram(metrics.MetricLiveBatchPktsPerSyscall),
		gsoSegs:    reg.Counter(metrics.MetricLiveBatchGSOSegments),
		groSplits:  reg.Counter(metrics.MetricLiveBatchGROSplits),
		fallbacks:  reg.Counter(metrics.MetricLiveBatchFallbacks),
	})
}

// syscallMoved records one batched syscall that moved pkts packets.
func (s *batchStats) syscallMoved(pkts int) {
	s.syscalls.Add(1)
	if m := s.inst.Load(); m != nil {
		m.perSyscall.Observe(int64(pkts))
	}
}

// gso records pkts packets coalesced into one GSO super-datagram.
func (s *batchStats) gso(pkts int) {
	s.gsoSegs.Add(uint64(pkts))
	if m := s.inst.Load(); m != nil {
		m.gsoSegs.Add(uint64(pkts))
	}
}

// gro records pkts packets split out of one GRO-coalesced datagram.
func (s *batchStats) gro(pkts int) {
	s.groSplits.Add(uint64(pkts))
	if m := s.inst.Load(); m != nil {
		m.groSplits.Add(uint64(pkts))
	}
}

// fallback records one batch operation served by the portable loop.
func (s *batchStats) fallback() {
	s.fallbacks.Add(1)
	if m := s.inst.Load(); m != nil {
		m.fallbacks.Inc()
	}
}

// batchConn layers batched reads and writes over a role's UDPConn. When
// the conn is a bare *net.UDPConn on a supporting kernel, operations go
// through recvmmsg/sendmmsg (plus GSO/GRO); otherwise — wrapped conns,
// other platforms, kernels without the sockopts — the same API is
// served by a loop over the conn's single-datagram methods, so fault
// middleware still observes every packet.
type batchConn struct {
	c     UDPConn
	stats *batchStats
	caps  BatchCaps
	k     *kernelBatch // nil on the portable path

	// Portable-path read state: one datagram per ReadBatch, with its
	// source address (for PacketsSrc flow demultiplexing).
	rbuf []byte
	rlen int
	rsrc wire.Addr
}

// newBatchConn probes c and builds the appropriate datapath. wantRead
// sizes the receive ring (senders pass false and skip it, along with
// the GRO probe, since they never read).
func newBatchConn(c UDPConn, stats *batchStats, wantRead bool) *batchConn {
	bc := &batchConn{c: c, stats: stats}
	if uc, ok := c.(*net.UDPConn); ok {
		bc.k = newKernelBatch(uc, stats, wantRead, &bc.caps)
	}
	if bc.k == nil && wantRead {
		bc.rbuf = make([]byte, readBufSize)
	}
	return bc
}

// Caps returns the capability set the socket probed to.
func (bc *batchConn) Caps() BatchCaps { return bc.caps }

// ReadBatch blocks until at least one datagram is available and returns
// the number received into the ring (1 on the portable path). The
// datagrams are visited with Datagram or PacketsSrc; their buffers are
// valid only until the next ReadBatch.
func (bc *batchConn) ReadBatch() (int, error) {
	if bc.k != nil {
		return bc.k.readBatch()
	}
	bc.stats.fallback()
	n, from, err := bc.c.ReadFromUDP(bc.rbuf)
	if err != nil {
		return 0, err
	}
	bc.rlen = n
	bc.rsrc = wire.Addr{}
	if from != nil {
		if a, aerr := toWireAddr(from); aerr == nil {
			bc.rsrc = a
		}
	}
	bc.stats.recvPkts.Add(1)
	return 1, nil
}

// Datagram invokes fn once per wire packet of datagram i of the last
// ReadBatch (0 ≤ i < its return) with the packet's source address — what
// the relay demultiplexes flows on — splitting a GRO-coalesced datagram at
// its segment boundaries. GRO only coalesces datagrams of a single flow,
// so split segments inherit their datagram's source. A zero src means the
// source could not be captured (non-IPv4 peer); callers treat those as
// unroutable. pkt is valid until the next ReadBatch, on either path: fn
// may queue it, provided the queue is drained before the caller reads
// again.
func (bc *batchConn) Datagram(i int, fn func(pkt []byte, src wire.Addr)) {
	if bc.k != nil {
		bc.k.datagram(i, fn)
		return
	}
	if i == 0 {
		fn(bc.rbuf[:bc.rlen], bc.rsrc)
	}
}

// PacketsSrc visits the n datagrams of the last ReadBatch (n is its
// return) in arrival order, as Datagram does each.
func (bc *batchConn) PacketsSrc(n int, fn func(pkt []byte, src wire.Addr)) {
	for i := 0; i < n; i++ {
		bc.Datagram(i, fn)
	}
}

// WriteBatch writes every packet on the connected socket, returning how
// many were fully sent. On the kernel path runs of equal-size packets
// go out as GSO super-datagrams and the rest via sendmmsg; the portable
// path loops over single writes. On error the unsent tail is
// pkts[sent:].
func (bc *batchConn) WriteBatch(pkts [][]byte) (sent int, err error) {
	if bc.k != nil {
		return bc.k.writeBatch(pkts, netip.AddrPort{})
	}
	bc.stats.fallback()
	for _, p := range pkts {
		if _, err := bc.c.Write(p); err != nil {
			return sent, err
		}
		sent++
		bc.stats.sentPkts.Add(1)
	}
	return sent, nil
}

// WriteBatchTo is WriteBatch for an unconnected socket: every packet
// goes to addr (the relay's forward leg — one call per destination per
// burst, which is exactly the shape GSO coalesces).
func (bc *batchConn) WriteBatchTo(pkts [][]byte, addr netip.AddrPort) (sent int, err error) {
	if bc.k != nil {
		return bc.k.writeBatch(pkts, addr)
	}
	bc.stats.fallback()
	for _, p := range pkts {
		if _, err := bc.c.WriteToUDPAddrPort(p, addr); err != nil {
			return sent, err
		}
		sent++
		bc.stats.sentPkts.Add(1)
	}
	return sent, nil
}
