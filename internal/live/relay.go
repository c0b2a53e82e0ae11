package live

// The live relay: the software network element / first-line DTN on the
// UDP substrate. The protocol element itself — flow table, upgrade
// recipe, sharded stash, NAK/ACK service, journal lifecycle — is
// dmtp.RelayEngine; this file is its socket glue:
//
//   - Each burst from the batch datapath is handed to the engine packet
//     by packet, in arrival order, under one hold of the engine lock.
//
//   - Every flow forwards to the one downstream address, Forward, whose
//     queue holds at most one GSO super-datagram: the packet that would
//     overflow it first writes the queue with one WriteBatchTo, and the
//     burst's end writes the rest. Each write gathers its flows' packets
//     contiguously, so a flow's equal-size run stays one GSO send however
//     the flows interleaved on arrival. A NAK retransmission to Forward
//     joins the queue ahead of its forwards. A stash buffer the engine
//     releases while packets are queued is recycled only after the burst's
//     last write, since a queued packet may still reference it.

import (
	"cmp"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dmtp"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// RelayConfig configures the software network element.
type RelayConfig struct {
	// Listen is the UDP address to bind, e.g. "127.0.0.1:17580".
	Listen string
	// Forward is the one downstream address (the receiver, or the next
	// segment's relay) every flow's packets are forwarded to, e.g.
	// "127.0.0.1:17581". Required; it is resolved once, at NewRelay.
	Forward string
	// Shards is the number of partitions experiments are spread across.
	// A shard is an eviction domain (CapacityBytes is split evenly, each
	// shard evicts its own oldest) and a journal file set with its own
	// writer goroutine, nothing else; one lock covers all of them. Zero
	// means 1.
	Shards int
	// MaxFlows bounds the flow table across all shards; registrations
	// beyond it are rejected (counted in dmtp.relay.flows.rejected).
	// Zero means unlimited. A flow idle for a minute is forgotten.
	MaxFlows int
	// MaxAge is the age budget installed into upgraded packets.
	MaxAge time.Duration
	// DeadlineBudget is the delivery budget; zero disables deadlines.
	DeadlineBudget time.Duration
	// CapacityBytes bounds the retransmission buffer, split evenly across
	// shards. Zero gives each shard dmtp.DefaultCapacityBytes (64 MiB).
	// It also sizes the relay's stash log (64 MiB, plus an eighth, when
	// zero); entries beyond what the log holds are heap allocations.
	CapacityBytes int
	// DropEveryN, when > 0, deliberately drops every Nth forwarded data
	// packet — fault injection so loopback demos exercise recovery.
	// internal/faults supersedes this for scripted schedules.
	DropEveryN int
	// Wrap, when non-nil, decorates the socket (fault middleware); it is
	// re-applied to the fresh socket on Restart.
	Wrap func(UDPConn) UDPConn
	// Clock overrides the relay clock (origin timestamps, deadlines);
	// nil means the wall clock. The conformance suite injects a
	// dmtp.FakeClock here.
	Clock dmtp.Clock
	// Recorder, when non-nil, receives flight-recorder events
	// (injected-drop, plus the buffer engine's nak-served / nak-miss /
	// evict / trim / crash / restart). Nil disables flight recording.
	Recorder *metrics.FlightRecorder
	// TraceSample, when positive, originates a sampled in-band trace on
	// every TraceSample'th upgraded packet that does not already carry one
	// — adding FeatTraced is just another config rewrite at the upgrade
	// boundary. Traces arriving from the sender are preserved regardless.
	TraceSample int
	// JournalDir, when non-empty, enables the stash write-ahead journal
	// (internal/journal): every stash insert, eviction, and trim is
	// logged to per-shard segment files, and Restart replays the log —
	// rebuilding the retransmission stash and sequence floors — before
	// rebinding, so a crashed relay resumes NAK service with zero message
	// loss. The directory is created if missing. Empty keeps today's
	// in-memory-only behavior exactly.
	JournalDir string
	// JournalSync is the journal fsync policy: journal.SyncBatch when
	// empty (one group-committed fsync per writer take), or SyncNone.
	JournalSync string
}

// RelayStats are the engine's relay counters plus the adapter's count of
// packets dropped by failed fire-and-forget writes.
type RelayStats struct {
	dmtp.RelayStats
	TxErrors uint64
}

// destination is the relay's one downstream address, shared by every
// flow. Its queue is at most one GSO super-datagram: rtx holds the
// retransmissions queued for it, flows the flows with forward-leg packets
// queued, in the order each first queued one, and n and bytes count both.
// send gathers them into pkts — retransmissions first, then flow by flow —
// for one batched WriteBatchTo.
type destination struct {
	addr     netip.AddrPort
	rtx      [][]byte
	flows    []*relayFlow
	n, bytes int
	pkts     [][]byte
}

// forwardQueue is a flow's handle on its destination (dmtp.Flow.Dst):
// the shared destination, and the flow's own packets queued on it, in
// order, awaiting the destination's next send.
type forwardQueue struct {
	dst  *destination
	pkts [][]byte
}

func (q *forwardQueue) String() string { return q.dst.addr.String() }

type relayFlow = dmtp.Flow[*forwardQueue]

// Relay is the live-path network element + buffer: dmtp.RelayEngine
// adapted to UDP sockets, with stash entries carved from the relay's own
// log and forwarding gathered into one send to Forward per GSO
// super-datagram.
type Relay struct {
	cfg RelayConfig

	// mu guards lifecycle state only: the socket, bind address, closed
	// flag. Datapath state is under engMu.
	mu     sync.Mutex
	conn   UDPConn
	bound  *net.UDPAddr // concrete bind address, reused by Restart
	self   wire.Addr
	closed bool
	wg     sync.WaitGroup

	// engMu is the engine's Locker: it serializes the receive loop's
	// bursts against scrapes, Crash and Restart. The flush that ends every
	// hold empties dst's queue and retired (stash buffers released while
	// it held packets), so both are empty whenever it is free. stash is
	// the engine's Alloc and where released stash buffers go back; every
	// call to it runs under engMu.
	engMu   sync.Mutex
	eng     *dmtp.RelayEngine[*forwardQueue]
	stash   *wire.StashLog
	dst     destination
	retired [][]byte

	txErrN atomic.Uint64

	// bc is the batch datapath over the current socket (rebuilt by
	// bind on Restart). Like conn it is stable while a receive loop
	// runs: rebinds only happen after the loop has exited.
	bc     *batchConn
	bstats batchStats
}

// BatchStats returns the relay's kernel-batch datapath counters.
func (r *Relay) BatchStats() BatchStats { return r.bstats.snapshot() }

// BatchCaps reports which kernel batching features the relay's current
// socket probed to.
func (r *Relay) BatchCaps() BatchCaps {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bc == nil {
		return BatchCaps{}
	}
	return r.bc.Caps()
}

// NewRelay binds the relay and starts its receive loop.
func NewRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.Clock == nil {
		cfg.Clock = dmtp.WallClock{}
	}
	if cfg.Forward == "" {
		return nil, fmt.Errorf("live: relay needs a Forward address")
	}
	fwd, err := net.ResolveUDPAddr("udp4", cfg.Forward)
	if err != nil {
		return nil, fmt.Errorf("live: resolve forward %q: %w", cfg.Forward, err)
	}
	// The unmapped IPv4 form, which relayDatapath compares requesters in.
	ap := fwd.AddrPort()
	// The stash log exists before the engine: a journal restore Allocs.
	r := &Relay{cfg: cfg, dst: destination{addr: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())},
		stash: wire.NewStashLog(cmp.Or(cfg.CapacityBytes, dmtp.DefaultCapacityBytes))}

	eng, err := dmtp.NewRelayEngine(dmtp.RelayConfig[*forwardQueue]{
		Shards: cfg.Shards,
		Buffer: dmtp.BufferConfig{
			CapacityBytes: cfg.CapacityBytes,
			Release:       r.release,
			Recorder:      cfg.Recorder,
			Clock:         cfg.Clock,
		},
		Datapath:    relayDatapath{r},
		Alloc:       r.stash.Get,
		JournalDir:  cfg.JournalDir,
		JournalSync: cfg.JournalSync,
		Locker:      &r.engMu,
		Resolve:     r.resolve,
		MaxFlows:    cfg.MaxFlows,
		Mode:        dmtp.ModeLive,
		Upgrade:     dmtp.Upgrade{MaxAge: cfg.MaxAge, DeadlineBudget: cfg.DeadlineBudget},
		TraceSample: cfg.TraceSample,
		DropEveryN:  cfg.DropEveryN,
		Emit:        r.queue,
	})
	if err != nil {
		return nil, err
	}
	r.eng = eng

	laddr, err := net.ResolveUDPAddr("udp4", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("live: resolve listen %q: %w", cfg.Listen, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.bind(laddr); err != nil {
		r.eng.Close()
		return nil, err
	}
	return r, nil
}

// JournalStats returns the journal counters (zero without a journal).
func (r *Relay) JournalStats() journal.Stats { return r.eng.JournalStats() }

// JournalRecoveries returns the most recent per-shard journal recovery —
// the startup scan, or the last crash replay. Nil without a journal.
func (r *Relay) JournalRecoveries() []*journal.Recovered { return r.eng.JournalRecoveries() }

// bind opens the socket at laddr and starts the receive loop. Callers are
// the constructor or Restart (holding r.mu).
func (r *Relay) bind(laddr *net.UDPAddr) error {
	conn, err := net.ListenUDP("udp4", laddr)
	if err != nil {
		return fmt.Errorf("live: listen %v: %w", laddr, err)
	}
	// DAQ senders burst; a deep receive buffer is the userspace analogue
	// of the DTN tuning the paper describes.
	conn.SetReadBuffer(8 << 20)
	self, err := toWireAddr(conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		conn.Close()
		return err
	}
	if self.IP == ([4]byte{0, 0, 0, 0}) {
		// Bound to the wildcard: advertise loopback so NAKs can reach us
		// in single-host deployments.
		self.IP = [4]byte{127, 0, 0, 1}
	}
	var c UDPConn = conn
	if r.cfg.Wrap != nil {
		c = r.cfg.Wrap(c)
	}
	r.conn = c
	r.bound = conn.LocalAddr().(*net.UDPAddr)
	r.self = self
	r.eng.SetSelf(self)
	// The batch datapath reads bursts with recvmmsg (GRO enabled) and
	// flushes each destination's forwards with sendmmsg/GSO where the
	// kernel allows; wrapped sockets fall back to the portable loop so
	// fault middleware still sees every packet.
	r.bc = newBatchConn(c, &r.bstats, true)
	r.wg.Add(1)
	go r.loop(r.bc)
	return nil
}

// Addr returns the relay's bound address as a string.
func (r *Relay) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bound.String()
}

// WireAddr returns the relay's protocol address (what headers point at).
func (r *Relay) WireAddr() wire.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.self
}

// Stats returns a snapshot of the counters.
func (r *Relay) Stats() RelayStats { return RelayStats{r.eng.Stats(), r.txErrN.Load()} }

// FlowStats returns the flow-table counters (dmtp.relay.flows.*).
func (r *Relay) FlowStats() dmtp.FlowStats { return r.eng.FlowStats() }

// Flows snapshots the flow table, ordered by shard, then source, then
// experiment — the SIGUSR1 dump and /flows endpoint.
func (r *Relay) Flows() []dmtp.FlowInfo { return r.eng.Flows() }

// BufferedBytes returns current retransmission-buffer occupancy, summed
// across shards.
func (r *Relay) BufferedBytes() int { return r.eng.Stats().Occupancy }

// RegisterMetrics publishes the relay's metric set on reg as one set: the
// engine's (dmtp.buf.*, dmtp.relay.*, flow table — shared with the
// simulator, so names match by construction), then wire.pool.* from the
// relay's stash log and the adapter's transmit-error and kernel-batch
// counters, all read under the one hold of engMu the engine's sample
// takes. The journal family, when journaled, is a set of its own.
func (r *Relay) RegisterMetrics(reg *metrics.Registry) {
	names := []string{metrics.MetricPoolGets, metrics.MetricPoolHits, metrics.MetricPoolMisses, metrics.MetricPoolOversize}
	r.eng.RegisterMetricsWith(reg, append(names, liveNames...), func(dst []int64) {
		p := r.stash.Stats()
		dst[0], dst[1], dst[2], dst[3] = int64(p.Gets), int64(p.Hits), int64(p.Misses()), int64(p.Oversize)
		r.bstats.fill(dst[4:], r.txErrN.Load())
	})
	r.bstats.install(reg)
}

// relayDatapath serves engine output (NAK retransmissions) over the
// relay's socket. A requester at the Forward address gets the packet on
// the destination's queue, ahead of its forwards, and release keeps the
// queued stash entry alive as it does a forward's. Any other requester is
// written at once. Socket writes do not retain the packet, so the engine's
// pooled stash entries go out without copying. Called under engMu, always
// from the receive-loop goroutine — which also makes r.conn stable for
// the duration (rebinds only happen after the loop exits).
type relayDatapath struct{ r *Relay }

func (d relayDatapath) SendControl(dst wire.Addr, pkt []byte) { d.SendData(dst, pkt) }

func (d relayDatapath) SendData(dst wire.Addr, pkt []byte) {
	r, ap := d.r, addrPort(dst)
	if ap == r.dst.addr {
		r.reserve(len(pkt))
		r.dst.rtx = append(r.dst.rtx, pkt)
		return
	}
	if _, err := r.conn.WriteToUDPAddrPort(pkt, ap); err != nil {
		r.txErrN.Add(1)
	}
}

// Crash models the relay process dying (dmtp.RelayEngine.Crash): stash
// and flow table are lost, the socket closes abruptly, and once the
// receive loop has drained the journal, if any, is flushed — the log
// survives the process; its in-memory tail does not survive losing the
// writer.
func (r *Relay) Crash() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	conn := r.conn
	r.mu.Unlock()
	r.eng.Crash(func() {
		conn.Close()
		r.wg.Wait()
	})
}

// Restart rebinds the crashed relay on its original address with an
// empty flow table and resumes forwarding; a journaled stash is replayed
// before the socket reopens, so NAK service resumes warm. It is an error
// to Restart a relay that has not crashed or is closed.
func (r *Relay) Restart() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("live: relay closed")
	}
	if !r.eng.Down() {
		return fmt.Errorf("live: relay not crashed")
	}
	return r.eng.Restart(func() error { return r.bind(r.bound) })
}

// Ready reports whether the relay can serve traffic, with a reason when
// it cannot — the /healthz?probe=ready contract. A relay is not ready
// from Crash() until Restart() has finished: the journal replay and the
// socket rebind both happen inside that window, so a journaled restart
// reports not-ready while the stash is still being rebuilt.
func (r *Relay) Ready() (bool, string) {
	if r.Down() {
		if r.cfg.JournalDir != "" {
			return false, "relay crashed; journal replay pending until restart"
		}
		return false, "relay crashed; awaiting restart"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false, "relay closed"
	}
	if r.conn == nil {
		return false, "listen socket not bound"
	}
	return true, ""
}

// Down reports whether the relay is crashed and awaiting Restart.
func (r *Relay) Down() bool { return r.eng.Down() }

// Close stops the relay.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conn := r.conn
	r.mu.Unlock()
	var err error
	if !r.Down() && conn != nil {
		err = conn.Close()
	}
	r.wg.Wait()
	if jerr := r.eng.Close(); err == nil {
		err = jerr
	}
	return err
}

// loop is the receive loop: read a burst, hand its packets to the engine
// in arrival order and flush the forward queues, all under one hold of
// engMu. Ring buffers stay valid until the next ReadBatch, which is after
// every queued forward has been written.
func (r *Relay) loop(bc *batchConn) {
	defer r.wg.Done()
	var now int64
	handle := func(pkt []byte, src wire.Addr) {
		v := wire.View(pkt)
		if _, err := v.Check(); err != nil {
			r.eng.CountMalformed()
			return
		}
		r.eng.Handle(src, v, now)
	}
	for {
		n, err := bc.ReadBatch()
		if err != nil {
			r.mu.Lock()
			stop := r.closed
			r.mu.Unlock()
			if stop || r.Down() {
				return
			}
			continue
		}
		now = r.cfg.Clock.Now()
		r.engMu.Lock()
		bc.PacketsSrc(n, handle)
		r.flush()
		r.engMu.Unlock()
		r.eng.Sweep(now)
	}
}

// resolve is the engine's flow-registration hook: every flow queues on
// the relay's one destination.
func (r *Relay) resolve(wire.Addr, wire.ExperimentID) *forwardQueue {
	return &forwardQueue{dst: &r.dst}
}

// queue is the engine's Emit: make room for pkt on the destination,
// append it to f's queue, and on the flow's first packet since the
// destination's last send list the flow on it. pkt points into the batch
// ring or a stash buffer; the ring outlives this lock hold's flush, and
// release makes the buffer do so.
func (r *Relay) queue(f *relayFlow, pkt []byte) {
	r.reserve(len(pkt))
	q := f.Dst
	if len(q.pkts) == 0 {
		r.dst.flows = append(r.dst.flows, f)
	}
	q.pkts = append(q.pkts, pkt)
}

// reserve accounts one more packet of size bytes on the destination,
// first sending its queue if the packet would not fit the same GSO
// super-datagram.
func (r *Relay) reserve(size int) {
	d := &r.dst
	if d.n == maxGSOSegs || d.n > 0 && d.bytes+size > maxGSOBytes {
		r.send()
	}
	d.n++
	d.bytes += size
}

// recycle returns a released stash buffer to the relay's stash log; tests
// swap it to see every trimmed, evicted or crashed entry on its way back.
var recycle = (*wire.StashLog).Put

// release is the engine's Buffer.Release. A queued packet may point at b,
// so while the destination holds queued packets b returns to the stash
// log only after flush — at once when it holds none (Crash, Restart, a
// burst's first packet, just after a send). Caller holds engMu.
func (r *Relay) release(b []byte) {
	if r.dst.n == 0 {
		recycle(r.stash, b)
		return
	}
	r.retired = append(r.retired, b)
}

// send writes the destination's queue with one batched write: its
// retransmissions, then its flows' forwards gathered flow by flow, so
// each flow's packets stay in order and contiguous — equal-size flows
// still merge into one GSO run, a flow of another size starts a run of
// its own. Each flow is credited the share of the kernel-accepted prefix
// it owns; failed tails are dropped (loss recovery is the protocol's job)
// and counted in dmtp.live.tx.errors. Caller holds engMu.
func (r *Relay) send() {
	d := &r.dst
	pkts := append(d.pkts[:0], d.rtx...)
	for _, f := range d.flows {
		pkts = append(pkts, f.Dst.pkts...)
	}
	sent, err := r.bc.WriteBatchTo(pkts, d.addr)
	if err != nil {
		r.txErrN.Add(uint64(len(pkts) - sent))
	}
	sent = max(sent-len(d.rtx), 0)
	for _, f := range d.flows {
		n := min(sent, len(f.Dst.pkts))
		f.Sent(n)
		sent -= n
		f.Dst.pkts = f.Dst.pkts[:0]
	}
	d.pkts = pkts[:0]
	d.rtx = d.rtx[:0]
	d.flows = d.flows[:0]
	d.n, d.bytes = 0, 0
}

// flush ends a lock hold: it records the engine's pending eviction run,
// sends what the destination still queues, then recycles the retired
// buffers. Caller holds engMu.
func (r *Relay) flush() {
	r.eng.RecordPending()
	if r.dst.n > 0 {
		r.send()
	}
	for _, b := range r.retired {
		recycle(r.stash, b)
	}
	r.retired = r.retired[:0]
}
