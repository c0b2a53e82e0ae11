// Package live runs the DMTP wire protocol over real UDP sockets: a
// userspace proof path alongside the simulator (the reproduction band for
// this paper notes "userspace transport possible, no programmable-HW
// path"). Three processes-worth of roles are provided:
//
//   - Sender: the instrument source, emitting mode-0 datagrams;
//   - Relay: the software network element / first-line DTN, which upgrades
//     the mode in flight (sequence numbers, buffer pointer, origin
//     timestamp, age budget), buffers packets, and serves NAKs — the same
//     header rewriting the p4sim pipeline performs, but on a socket;
//   - Receiver: loss detection, NAK-based recovery from the relay, the
//     destination timeliness check, and message delivery.
//
// Every role accepts a Wrap hook that decorates its socket; internal/faults
// provides a middleware that injects deterministic fault plans there, and
// the Relay's Crash/Restart pair models a relay process dying and coming
// back with a cold retransmission buffer. The cmd/dmtp-send,
// cmd/dmtp-relay and cmd/dmtp-recv tools wrap these roles for interactive
// use on loopback or a real LAN.
package live

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dmtp"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// UDPConn is the subset of *net.UDPConn the live roles use. Middleware
// (e.g. internal/faults.Conn) implements the same interface, so a Wrap
// hook can interpose fault injection without the roles knowing.
type UDPConn interface {
	ReadFromUDP(b []byte) (int, *net.UDPAddr, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	Write(b []byte) (int, error)
	LocalAddr() net.Addr
	Close() error
	SetReadBuffer(bytes int) error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// toWireAddr converts a UDP address to the protocol's 4-byte form.
func toWireAddr(a *net.UDPAddr) (wire.Addr, error) {
	ip4 := a.IP.To4()
	if ip4 == nil {
		return wire.Addr{}, fmt.Errorf("live: %v is not IPv4 (DMTP extension fields carry IPv4)", a.IP)
	}
	var w wire.Addr
	copy(w.IP[:], ip4)
	w.Port = uint16(a.Port)
	return w, nil
}

// addrPort converts a protocol address to the value form socket writes
// take, which (unlike *net.UDPAddr) costs no allocation per packet.
func addrPort(a wire.Addr) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4(a.IP), a.Port)
}

// SenderConfig configures the instrument-side source.
type SenderConfig struct {
	// Dst is the relay (or receiver) address, e.g. "127.0.0.1:17580".
	Dst string
	// Experiment is the 24-bit experiment number.
	Experiment uint32
	// SendTimeout bounds each socket write; zero means 100 ms.
	SendTimeout time.Duration
	// Redials bounds reconnect attempts per Send after a write error
	// (relay death surfaces as ECONNREFUSED on a connected UDP socket);
	// zero means 3.
	Redials int
	// RedialBackoff is the initial delay between reconnect attempts,
	// doubling each retry; zero means 5 ms.
	RedialBackoff time.Duration
	// BatchSize, when > 1, batches socket writes: Send encodes into a
	// small ring of per-connection buffers and returns immediately; the
	// ring is flushed — one lock acquisition and one write-deadline check
	// for the whole batch — when BatchSize packets are pending or
	// FlushInterval elapses. Batched sends are fire-and-forget: write
	// errors are counted in Stats and the socket is redialled on the next
	// flush, but individual messages in a failed flush are not resent
	// (loss recovery is the protocol's job, via NAKs). Zero or 1 keeps
	// the synchronous per-send path with its redial loop.
	BatchSize int
	// FlushInterval bounds how long a batched packet may wait in the ring
	// before being flushed; zero means 500 µs. Ignored unless BatchSize > 1.
	FlushInterval time.Duration
	// Wrap, when non-nil, decorates the socket (fault middleware).
	Wrap func(UDPConn) UDPConn
	// Counters, when non-nil, records reconnects for observability.
	Counters *telemetry.CounterSet
	// Recorder, when non-nil, receives reconnect events. Nil disables
	// flight recording.
	Recorder *metrics.FlightRecorder
	// TraceSample, when positive, emits every TraceSample'th message with
	// a sampled FeatTraced extension (1 = trace everything). Zero disables
	// trace origination; unsampled messages carry no trace extension and
	// pay no extra datapath cost.
	TraceSample int
}

func (c SenderConfig) withDefaults() SenderConfig {
	if c.SendTimeout == 0 {
		c.SendTimeout = 100 * time.Millisecond
	}
	if c.Redials == 0 {
		c.Redials = 3
	}
	if c.RedialBackoff == 0 {
		c.RedialBackoff = 5 * time.Millisecond
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 500 * time.Microsecond
	}
	return c
}

// SenderStats are cumulative sender counters.
type SenderStats struct {
	Sent       uint64
	SendErrors uint64 // socket writes that failed (relay death, timeout)
	Reconnects uint64 // successful redials after a write error
}

// Sender emits DAQ messages as mode-0 DMTP datagrams over UDP. On write
// errors it redials and resends with bounded exponential backoff, so a
// relay restart does not wedge the source.
type Sender struct {
	cfg   SenderConfig
	raddr *net.UDPAddr

	mu    sync.Mutex
	conn  UDPConn
	stats SenderStats
	// encap builds the mode-0 packets and counts messages (not send
	// attempts), which drives trace sampling and trace-ID assignment.
	encap dmtp.Encap
	// pkt is the per-connection encode buffer reused by every unary Send;
	// growth persists, so steady-state sends allocate nothing.
	pkt []byte
	// deadlineArmed is when the socket write deadline was last set; the
	// deadline is only re-armed after SendTimeout/4 so the per-send
	// deadline syscall cost is amortized across many writes.
	deadlineArmed time.Time

	// Batch-mode state: a ring of encoded packets awaiting one flush.
	// The flush timer is armed only when the ring goes non-empty (first
	// enqueue) so an idle sender schedules no wakeups and the
	// packets-per-syscall histogram sees no empty flushes.
	batch  [][]byte
	batchN int
	bconn  *batchConn // batched writer over conn; rebuilt by dial
	flushT *time.Timer
	done   chan struct{}
	closed bool
	wg     sync.WaitGroup

	bstats batchStats
	txErr  atomic.Pointer[metrics.Counter]
}

// BatchStats returns the sender's kernel-batch datapath counters.
func (s *Sender) BatchStats() BatchStats { return s.bstats.snapshot() }

// BatchCaps reports which kernel batching features the sender's socket
// probed to (zero value until the first batched dial, or always on the
// unary path).
func (s *Sender) BatchCaps() BatchCaps {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bconn == nil {
		return BatchCaps{}
	}
	return s.bconn.Caps()
}

// countTxErr records n packets dropped by a fire-and-forget write.
func (s *Sender) countTxErr(n int) {
	if c := s.txErr.Load(); c != nil && n > 0 {
		c.Add(uint64(n))
	}
}

// NewSenderWithConfig dials with full control over timeouts and middleware.
func NewSenderWithConfig(cfg SenderConfig) (*Sender, error) {
	cfg = cfg.withDefaults()
	raddr, err := net.ResolveUDPAddr("udp4", cfg.Dst)
	if err != nil {
		return nil, fmt.Errorf("live: resolve %q: %w", cfg.Dst, err)
	}
	s := &Sender{
		cfg:   cfg,
		raddr: raddr,
		encap: dmtp.Encap{Experiment: cfg.Experiment, TraceSample: cfg.TraceSample},
		pkt:   make([]byte, 0, 2048),
	}
	if err := s.dial(); err != nil {
		return nil, err
	}
	if cfg.BatchSize > 1 {
		s.batch = make([][]byte, cfg.BatchSize)
		for i := range s.batch {
			s.batch[i] = make([]byte, 0, 2048)
		}
		s.done = make(chan struct{})
		s.flushT = time.NewTimer(time.Hour)
		if !s.flushT.Stop() {
			<-s.flushT.C
		}
		s.wg.Add(1)
		go s.flushLoop()
	}
	return s, nil
}

// dial (re)establishes the connected socket. Callers hold s.mu or are the
// constructor.
func (s *Sender) dial() error {
	conn, err := net.DialUDP("udp4", nil, s.raddr)
	if err != nil {
		return fmt.Errorf("live: dial %v: %w", s.raddr, err)
	}
	var c UDPConn = conn
	if s.cfg.Wrap != nil {
		c = s.cfg.Wrap(c)
	}
	s.conn = c
	if s.cfg.BatchSize > 1 {
		// Batched flushes go through the kernel-batch datapath when the
		// socket supports it (sendmmsg + GSO); senders never read, so no
		// receive ring is built.
		s.bconn = newBatchConn(c, &s.bstats, false)
	}
	s.deadlineArmed = time.Time{} // fresh socket: next write re-arms
	return nil
}

// traceNow is the clock behind the tx hop stamp — the only use mode 0 has
// for it — read only for a message that will carry one. Callers hold s.mu.
func (s *Sender) traceNow() int64 {
	if s.encap.NextTraced() {
		return time.Now().UnixNano()
	}
	return 0
}

// armDeadlineLocked refreshes the socket write deadline only once a quarter
// of the send budget has elapsed since the last refresh. Every write still
// sees at least ¾·SendTimeout of margin, and the steady-state fast path
// skips the per-send deadline update, which costs a substantial fraction of
// the write itself on loopback.
func (s *Sender) armDeadlineLocked() {
	t := time.Now()
	if !s.deadlineArmed.IsZero() && t.Sub(s.deadlineArmed) < s.cfg.SendTimeout/4 {
		return
	}
	s.conn.SetWriteDeadline(t.Add(s.cfg.SendTimeout))
	s.deadlineArmed = t
}

// Send emits one message for the given instrument slice, retrying through
// reconnects when the relay is down. It returns the last error once the
// redial budget is exhausted. With BatchSize > 1 the message is instead
// queued for the next batch flush (see SenderConfig.BatchSize).
func (s *Sender) Send(msg []byte, slice uint8) error {
	if s.cfg.BatchSize > 1 {
		return s.sendBatched(msg, slice)
	}
	backoff := s.cfg.RedialBackoff
	var lastErr error
	var pkt []byte // encoded once per message; every attempt sends these bytes
	for attempt := 0; attempt <= s.cfg.Redials; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return fmt.Errorf("live: sender closed")
		}
		if s.conn == nil {
			if err := s.dial(); err != nil {
				lastErr = err
				s.mu.Unlock()
				continue
			}
			s.stats.Reconnects++
			s.cfg.Counters.Inc(telemetry.CounterReconnect)
			s.cfg.Recorder.Record(metrics.EvReconnect, 0, 0, uint64(attempt))
		}
		fresh := pkt == nil
		if fresh {
			// Encode under the lock into the connection's reusable buffer.
			// A retry resends the same bytes, so a traced message keeps the
			// ID of its ordinal however many attempts it takes.
			var err error
			if pkt, err = s.encap.AppendPacket(s.pkt[:0], s.traceNow(), msg, slice); err != nil {
				s.mu.Unlock()
				return err
			}
			s.pkt = pkt[:0] // keep any growth for subsequent sends
		}
		s.armDeadlineLocked()
		_, err := s.conn.Write(pkt)
		if err == nil {
			s.stats.Sent++
			s.mu.Unlock()
			return nil
		}
		// Relay death: a connected UDP socket reports ECONNREFUSED from
		// the ICMP port-unreachable of an earlier send. Drop the socket
		// and redial so the retry re-emits this message.
		lastErr = err
		s.stats.SendErrors++
		s.conn.Close()
		s.conn = nil
		s.bconn = nil
		if fresh {
			// s.pkt is another Send's to overwrite once the lock drops.
			pkt = append([]byte(nil), pkt...)
		}
		s.mu.Unlock()
	}
	return fmt.Errorf("live: send: %w", lastErr)
}

// sendBatched queues one encoded message in the ring, flushing inline when
// the ring fills. The returned error is from the flush, if one ran.
func (s *Sender) sendBatched(msg []byte, slice uint8) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("live: sender closed")
	}
	enc, err := s.encap.AppendPacket(s.batch[s.batchN][:0], s.traceNow(), msg, slice)
	if err != nil {
		return err
	}
	s.batch[s.batchN] = enc
	s.batchN++
	if s.batchN >= len(s.batch) {
		return s.flushLocked()
	}
	if s.batchN == 1 {
		// First packet into an empty ring: arm the flush timer. A full
		// ring flushes inline above, and the timer fires at most once per
		// arming, so an idle sender never wakes (a stale fire finds an
		// empty ring and is a no-op).
		s.flushT.Reset(s.cfg.FlushInterval)
	}
	return nil
}

// flushLocked writes every queued packet as one batch — a single
// deadline check and, on the kernel path, a single sendmmsg (or GSO
// super-send) for the whole ring. On a write error the socket is
// dropped (redialled by the next flush) and the unsent packets of this
// batch are counted as send errors.
func (s *Sender) flushLocked() error {
	n := s.batchN
	if n == 0 {
		return nil
	}
	s.batchN = 0
	if s.conn == nil {
		if err := s.dial(); err != nil {
			s.stats.SendErrors += uint64(n)
			s.countTxErr(n)
			return err
		}
		s.stats.Reconnects++
		s.cfg.Counters.Inc(telemetry.CounterReconnect)
		s.cfg.Recorder.Record(metrics.EvReconnect, 0, 0, 0)
	}
	s.armDeadlineLocked()
	sent, err := s.bconn.WriteBatch(s.batch[:n])
	s.stats.Sent += uint64(sent)
	if err != nil {
		s.stats.SendErrors += uint64(n - sent)
		s.countTxErr(n - sent)
		s.conn.Close()
		s.conn = nil
		s.bconn = nil
		return fmt.Errorf("live: batched send: %w", err)
	}
	return nil
}

// flushLoop drains partially filled batches when the flush timer —
// armed by the first enqueue into an empty ring — fires.
func (s *Sender) flushLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.flushT.C:
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.flushLocked()
			s.mu.Unlock()
		}
	}
}

// Sent returns the number of messages emitted.
func (s *Sender) Sent() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Sent
}

// Stats returns a snapshot of the counters.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RegisterMetrics publishes the sender's dmtp.tx.* counters on reg as
// sampled gauges (read under the sender lock only at scrape time), plus its
// kernel-batch and transmit-error counters.
func (s *Sender) RegisterMetrics(reg *metrics.Registry) {
	snap := s.Stats
	reg.RegisterFunc(metrics.MetricTxSent, func() int64 { return int64(snap().Sent) })
	reg.RegisterFunc(metrics.MetricTxSendErrors, func() int64 { return int64(snap().SendErrors) })
	reg.RegisterFunc(metrics.MetricTxReconnects, func() int64 { return int64(snap().Reconnects) })
	s.bstats.install(reg)
	s.txErr.Store(reg.Counter(metrics.MetricLiveTxErrors))
}

// LocalAddr returns the sender's bound address.
func (s *Sender) LocalAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return ""
	}
	return s.conn.LocalAddr().String()
}

// Close flushes any queued batch and releases the socket.
func (s *Sender) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.flushLocked()
	var err error
	if s.conn != nil {
		err = s.conn.Close()
		s.conn = nil
	}
	if s.flushT != nil {
		s.flushT.Stop()
	}
	s.mu.Unlock()
	if s.done != nil {
		close(s.done)
	}
	s.wg.Wait()
	return err
}
