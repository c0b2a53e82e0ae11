package live

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dmtp"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// ReceiverConfig configures the live-path destination.
type ReceiverConfig struct {
	// Listen is the UDP address to bind.
	Listen string
	// NAKDelay is the reorder tolerance before the first NAK (default 2 ms).
	NAKDelay time.Duration
	// NAKRetry is the base retry timeout (default 20 ms). Retries back
	// off exponentially with jitter, capped at NAKRetryMax.
	NAKRetry time.Duration
	// NAKRetryMax caps the backoff between retries (default 500 ms); it
	// keeps the cadence sane when MaxNAKs is large enough that a bare
	// exponential would overflow into a busy spin.
	NAKRetryMax time.Duration
	// MaxNAKs bounds recovery attempts per sequence number (default 5):
	// past it the gap is written off as permanent loss, delivery
	// continues around it, and OnGap (if set) is notified.
	MaxNAKs int
	// Seed drives the retry jitter, for deterministic tests.
	Seed int64
	// AckInterval, when nonzero, emits cumulative ACKs to the relay so it
	// can trim acknowledged packets from its retransmission buffer.
	AckInterval time.Duration
	// Clock overrides the engine clock; nil means the wall clock. Tests
	// and the conformance suite inject a dmtp.FakeClock here to drive NAK
	// timing deterministically. It is read once per socket read, and every
	// packet that read returned is judged against that reading: Latency,
	// Late and Aged measure origin → the read that delivered the packet.
	// With the wall clock, the engine's NAK and ACK timers fire on the read
	// goroutine after each read, at that read's reading, and a read
	// deadline at the earliest pending timer wakes an idle socket. An
	// injected clock fires its timers when its owner advances it, each
	// fire taking a reading of its own.
	Clock dmtp.Clock
	// OnMessage delivers each message; called from the receive goroutine.
	// m.Payload is a view of the receive ring, valid until OnMessage
	// returns: the next socket read overwrites it, so a callback that
	// keeps the bytes clones them (bytes.Clone).
	OnMessage func(m Message)
	// OnGap reports each sequence number written off as permanently lost
	// — the graceful-degradation signal for deliver-with-gap consumers.
	OnGap func(exp wire.ExperimentID, seq uint64)
	// OnNAK, when non-nil, observes every NAK sent (experiment and
	// requested ranges); the conformance suite records these.
	OnNAK func(exp wire.ExperimentID, ranges []wire.SeqRange)
	// Wrap, when non-nil, decorates the socket (fault middleware).
	Wrap func(UDPConn) UDPConn
	// Counters, when non-nil, is the shared fault/recovery counter set
	// (normally a faults.Plan's); a private set is created otherwise.
	Counters *telemetry.CounterSet
	// Recorder, when non-nil, receives the engine's flight-recorder
	// events (gap-detected, nak-sent, recovered, write-off). Nil disables
	// flight recording.
	Recorder *metrics.FlightRecorder
	// Tracer, when non-nil, collects span records from sampled FeatTraced
	// deliveries. Untraced and sampled-out messages never touch it.
	Tracer *tracespan.Collector
}

// Message is one delivered message on the live path. It is the engine's
// message type; both substrates deliver it.
type Message = dmtp.Message

// ReceiverStats are cumulative receiver counters.
type ReceiverStats struct {
	Received      uint64
	Delivered     uint64
	Duplicates    uint64
	NAKsSent      uint64
	Recovered     uint64
	PermanentLoss uint64 // gaps written off after MaxNAKs
	Aged          uint64
	Late          uint64
	TxErrors      uint64 // control packets dropped by failed socket writes
}

// Receiver is the live-path destination endpoint. The protocol state
// machine — gap detection, NAK scheduling with jittered backoff, write-off
// after MaxNAKs, timeliness checks — lives in dmtp.ReceiverEngine; this
// type adapts it to UDP sockets and real (or injected) clocks. Engine
// callbacks run under r.mu and queue their effects; socket writes and
// application callbacks are flushed after the lock is released.
//
// With the wall clock only the read goroutine drives the engine (Close
// stops it): it ingests a read datagram by datagram, delivering each
// datagram's messages before it ingests the next, then fires every timer
// due at the read's reading and dispatches what they queued, so the NAKs
// and ACKs a read finds due leave in one batched send per destination.
// Delivering per datagram rather than per read keeps the time from a
// message's arrival to its OnMessage from growing with the read's size.
//
// Delivered payloads are views of the receive ring, which rests on one
// invariant: pendMsgs is empty whenever r.mu is free. Only Ingest delivers
// (Ordered parking, the one way a timer fire could, is not exposed here),
// and readLoop takes the flush before it unlocks; so an injected clock's
// fire never flushes messages, and every OnMessage of a read runs on the
// read goroutine before the next ReadBatch reuses the ring.
type Receiver struct {
	cfg   ReceiverConfig
	conn  UDPConn
	bc    *batchConn
	self  wire.Addr
	clock dmtp.Clock // the Now behind rxClock: cfg.Clock, or the wall clock

	mu     sync.Mutex
	eng    *dmtp.ReceiverEngine
	closed bool
	// burstNow is the clock reading shared by the read being ingested and
	// the timers fired after it (see rxClock.Now); zero whenever r.mu is
	// free.
	burstNow int64
	// timers holds the engine's timers when no Clock is injected; readLoop
	// fires them.
	timers dmtp.TimerQueue
	wg     sync.WaitGroup

	// Effect queues, filled by engine callbacks under mu and drained
	// outside it (socket writes and user callbacks must not run under the
	// receiver lock).
	pendMsgs  []Message
	pendGaps  []gapEvent
	pendNAKs  []nakEvent
	pendSends []ctrlSend

	// LatencyHist records origin→delivery latency (mutex-guarded).
	LatencyHist *telemetry.Histogram
	// Counters records recoveries and permanent losses alongside any
	// injected faults sharing the set.
	Counters *telemetry.CounterSet

	// sendMu serializes control sends on bc: the read goroutine's, and an
	// injected clock's fires on its owner's goroutine. ctrlPkts is the
	// gather slice it guards.
	sendMu   sync.Mutex
	ctrlPkts [][]byte

	// txErrs counts control packets dropped by failed fire-and-forget
	// writes in dispatch, which runs outside r.mu — hence atomics.
	txErrs atomic.Uint64
	bstats batchStats
}

// BatchStats returns the receiver's kernel-batch datapath counters: its
// reads, and its control sends.
func (r *Receiver) BatchStats() BatchStats { return r.bstats.snapshot() }

type gapEvent struct {
	exp wire.ExperimentID
	seq uint64
}

type nakEvent struct {
	exp    wire.ExperimentID
	ranges []wire.SeqRange
}

type ctrlSend struct {
	dst wire.Addr
	pkt []byte
}

// NewReceiver binds the receiver and starts its read loop.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.NAKDelay == 0 {
		cfg.NAKDelay = 2 * time.Millisecond
	}
	if cfg.NAKRetry == 0 {
		cfg.NAKRetry = 20 * time.Millisecond
	}
	if cfg.Counters == nil {
		cfg.Counters = telemetry.NewCounterSet()
	}
	laddr, err := net.ResolveUDPAddr("udp4", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("live: resolve %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp4", laddr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %q: %w", cfg.Listen, err)
	}
	conn.SetReadBuffer(8 << 20)
	self, err := toWireAddr(conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		conn.Close()
		return nil, err
	}
	if self.IP == ([4]byte{0, 0, 0, 0}) {
		self.IP = [4]byte{127, 0, 0, 1}
	}
	var c UDPConn = conn
	if cfg.Wrap != nil {
		c = cfg.Wrap(c)
	}
	r := &Receiver{
		cfg:         cfg,
		conn:        c,
		self:        self,
		clock:       cfg.Clock,
		LatencyHist: telemetry.NewHistogram(),
		Counters:    cfg.Counters,
	}
	if r.clock == nil {
		r.clock = dmtp.WallClock{}
	}
	// Bursts arrive through the batch datapath — one recvmmsg fills the
	// ring (GRO-coalesced runs are split back into wire packets) — and
	// control packets leave through it. Wrapped or non-Linux sockets serve
	// the same calls one datagram at a time.
	r.bc = newBatchConn(c, &r.bstats, true)
	r.eng = dmtp.NewReceiverEngine(rxClock{r}, rxDatapath{r}, dmtp.ReceiverConfig{
		NAKDelay:    cfg.NAKDelay,
		NAKRetry:    cfg.NAKRetry,
		NAKRetryMax: cfg.NAKRetryMax,
		MaxNAKs:     cfg.MaxNAKs,
		Seed:        cfg.Seed,
		AckInterval: cfg.AckInterval,
		Counters:    cfg.Counters,
		OnGap: func(exp wire.ExperimentID, seq uint64) {
			r.pendGaps = append(r.pendGaps, gapEvent{exp, seq})
		},
		OnNAK: func(exp wire.ExperimentID, ranges []wire.SeqRange) {
			if r.cfg.OnNAK != nil {
				r.pendNAKs = append(r.pendNAKs, nakEvent{exp, append([]wire.SeqRange(nil), ranges...)})
			}
		},
		Deliver: func(m Message) {
			r.pendMsgs = append(r.pendMsgs, m)
		},
		LatencyHist: r.LatencyHist,
		Recorder:    cfg.Recorder,
		Tracer:      cfg.Tracer,
	})
	r.eng.SetSelf(self)
	r.wg.Add(1)
	go r.readLoop()
	return r, nil
}

// rxClock is the engine's clock. Without an injected clock its timers go
// into r.timers, which readLoop fires under r.mu. An injected clock fires
// them on its owner's goroutine, so this wraps each one to run under
// r.mu and flush its effects outside it.
type rxClock struct{ r *Receiver }

// Now is the read's one reading while readLoop ingests a burst and fires
// the timers due, and a fresh one for an injected clock's fires. (A clock
// standing at zero is re-read each time, to the same effect.)
func (c rxClock) Now() int64 {
	if now := c.r.burstNow; now != 0 {
		return now
	}
	return c.r.clock.Now()
}

func (c rxClock) Schedule(at int64, fn func()) dmtp.Timer {
	r := c.r
	if r.cfg.Clock == nil {
		return r.timers.Schedule(at, fn)
	}
	return r.clock.Schedule(at, func() {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		fn()
		f := r.takeFlushLocked()
		r.mu.Unlock()
		r.dispatch(f)
	})
}

// rxDatapath queues engine output (NAKs, cumulative ACKs) for transmission
// after the receiver lock is released.
type rxDatapath struct{ r *Receiver }

func (d rxDatapath) SendControl(dst wire.Addr, pkt []byte) {
	d.r.pendSends = append(d.r.pendSends, ctrlSend{dst, pkt})
}

func (d rxDatapath) SendData(wire.Addr, []byte) {} // receivers emit no data

// Addr returns the bound address.
func (r *Receiver) Addr() string { return r.conn.LocalAddr().String() }

// Stats returns a snapshot.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.eng.Stats()
	return ReceiverStats{
		Received:      s.Received,
		Delivered:     s.Delivered,
		Duplicates:    s.Duplicates,
		NAKsSent:      s.NAKsSent,
		Recovered:     s.Recovered,
		PermanentLoss: s.Lost,
		Aged:          s.Aged,
		Late:          s.Late,
		TxErrors:      r.txErrs.Load(),
	}
}

// OutstandingGaps returns missing sequence numbers awaiting recovery.
func (r *Receiver) OutstandingGaps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.OutstandingGaps()
}

// RegisterMetrics publishes the receiver's dmtp.rx.* metric set on reg via
// the shared helper (so names match the simulator), with its transmit
// errors and kernel-batch counters in the same set. A scrape reads every
// value under one hold of the receiver lock.
func (r *Receiver) RegisterMetrics(reg *metrics.Registry) {
	dmtp.RegisterReceiverMetrics(reg, liveNames, func(dst []int64) (dmtp.ReceiverStats, int, int64, int64) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.bstats.fill(dst, r.txErrs.Load())
		return r.eng.Stats(), r.eng.OutstandingGaps(), r.LatencyHist.Quantile(0.5), r.LatencyHist.Quantile(0.99)
	})
	r.bstats.install(reg)
}

// Close stops the receiver.
func (r *Receiver) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.eng.Stop()
	r.mu.Unlock()
	err := r.conn.Close()
	r.wg.Wait()
	return err
}

// readLoop ingests each read datagram by datagram under the lock, and
// releases it to dispatch a datagram's messages before ingesting the next;
// once the read is ingested it fires the timers due at the read's reading.
// A read that fails — the deadline at the earliest pending timer passing
// on an idle socket, most often — ingests nothing and fires all the same.
func (r *Receiver) readLoop() {
	defer r.wg.Done()
	ingest := func(pkt []byte, _ wire.Addr) {
		v := wire.View(pkt)
		if _, err := v.Check(); err != nil {
			r.eng.CountMalformed()
			return
		}
		if !v.IsControl() {
			r.eng.Ingest(v)
		}
	}
	var deadline int64 // the read deadline set on the socket; 0 for none
	for {
		n, err := r.bc.ReadBatch()
		if err != nil {
			n = 0
		}
		// Queued messages point into the ring: each flush is taken under
		// the hold of the lock that queued it and dispatched before the next
		// ReadBatch.
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		now := r.clock.Now()
		r.burstNow = now
		for i := 0; i < n; i++ {
			r.bc.Datagram(i, ingest)
			if len(r.pendMsgs) == 0 {
				continue
			}
			f := r.takeFlushLocked()
			r.burstNow = 0 // an injected clock's fire meanwhile reads afresh
			r.mu.Unlock()
			r.dispatch(f)
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				return
			}
			r.burstNow = now
		}
		r.timers.Fire(now)
		r.burstNow = 0
		next, _ := r.timers.NextAt()
		f := r.takeFlushLocked()
		r.mu.Unlock()
		r.dispatch(f)
		if next != deadline {
			deadline = next
			var t time.Time
			if next != 0 {
				t = time.Unix(0, next)
			}
			// It fails only on a closed socket, whose next read ends the loop.
			_ = r.conn.SetReadDeadline(t)
		}
		if poisonRing != nil {
			r.bc.PacketsSrc(n, poisonRing)
		}
	}
}

// poisonRing, when set, is run over each burst's packets in the ring once
// the burst's dispatch has returned. Only this package's TestMain sets it,
// to overwrite them, so that a payload view kept past OnMessage reads as
// poison at once instead of whenever a later burst happens to land on it.
var poisonRing func(pkt []byte, src wire.Addr)

type rxFlush struct {
	msgs  []Message
	gaps  []gapEvent
	naks  []nakEvent
	sends []ctrlSend
}

func (r *Receiver) takeFlushLocked() rxFlush {
	f := rxFlush{r.pendMsgs, r.pendGaps, r.pendNAKs, r.pendSends}
	r.pendMsgs, r.pendGaps, r.pendNAKs, r.pendSends = nil, nil, nil, nil
	return f
}

// dispatch runs the queued effects without the lock: NAKs/ACKs out first
// (recovery latency beats delivery callbacks), then application callbacks.
func (r *Receiver) dispatch(f rxFlush) {
	if len(f.sends) > 0 {
		r.sendControl(f.sends)
	}
	if r.cfg.OnMessage != nil {
		for _, m := range f.msgs {
			r.cfg.OnMessage(m)
		}
	}
	if r.cfg.OnGap != nil {
		for _, g := range f.gaps {
			r.cfg.OnGap(g.exp, g.seq)
		}
	}
	if r.cfg.OnNAK != nil {
		for _, n := range f.naks {
			r.cfg.OnNAK(n.exp, n.ranges)
		}
	}
	// Recycle queue capacity: the steady state flushes one message per
	// datagram, and re-allocating the slice each time would put an append
	// on every delivery. The burst's views of the ring go first.
	clear(f.msgs)
	r.mu.Lock()
	if r.pendMsgs == nil && cap(f.msgs) > 0 {
		r.pendMsgs = f.msgs[:0]
	}
	if r.pendSends == nil && cap(f.sends) > 0 {
		r.pendSends = f.sends[:0]
	}
	r.mu.Unlock()
}

// sendControl writes queued NAKs and ACKs with one WriteBatchTo per
// destination, in queue order within each; runs of equal-size packets,
// such as every ACK, ride one GSO send. It reorders sends in place. A
// failed write drops the unsent rest (loss recovery is the protocol's
// job), counted in dmtp.live.tx.errors.
func (r *Receiver) sendControl(sends []ctrlSend) {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	for len(sends) > 0 {
		dst := sends[0].dst
		pkts, rest := r.ctrlPkts[:0], sends[:0]
		for _, s := range sends {
			if s.dst == dst {
				pkts = append(pkts, s.pkt)
			} else {
				rest = append(rest, s)
			}
		}
		if sent, err := r.bc.WriteBatchTo(pkts, addrPort(dst)); err != nil {
			r.txErrs.Add(uint64(len(pkts) - sent))
		}
		clear(pkts)
		r.ctrlPkts, sends = pkts[:0], rest
	}
}
