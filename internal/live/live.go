// Package live runs the DMTP wire protocol over real UDP sockets: a
// userspace proof path alongside the simulator (the reproduction band for
// this paper notes "userspace transport possible, no programmable-HW
// path"). Three processes-worth of roles are provided:
//
//   - Sender: the instrument source, emitting mode-0 datagrams through
//     one flush ring that redials and resends when a write fails;
//   - Relay: the software network element / first-line DTN, which upgrades
//     the mode in flight (sequence numbers, buffer pointer, origin
//     timestamp, age budget), buffers packets, and serves NAKs — the same
//     header rewriting the p4sim pipeline performs, but on a socket;
//   - Receiver: loss detection, NAK-based recovery from the relay, the
//     destination timeliness check, and message delivery.
//
// The Relay and the Receiver accept a Wrap hook that decorates their
// socket; internal/faults provides a middleware that injects deterministic
// fault plans there, and the Relay's Crash/Restart pair models a relay
// process dying and coming back with a cold retransmission buffer. The
// cmd/dmtp-send, cmd/dmtp-relay and cmd/dmtp-recv tools wrap these roles
// for interactive use on loopback or a real LAN.
package live

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dmtp"
	"repro/internal/metrics"
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
	// BatchSize is the depth of the flush ring Send encodes into; zero
	// means 1. A full ring is written at once — one write-deadline check
	// and, on the kernel path, one sendmmsg or GSO super-send — so a ring
	// of one is written inside every Send.
	BatchSize int
	// FlushInterval bounds how long a packet may wait in a partly filled
	// ring before it is written; zero means 500 µs.
	FlushInterval time.Duration
	// Recorder, when non-nil, receives reconnect events. Nil disables
	// flight recording.
	Recorder *metrics.FlightRecorder
	// TraceSample, when positive, emits every TraceSample'th message with
	// a sampled FeatTraced extension (1 = trace everything). Zero disables
	// trace origination; unsampled messages carry no trace extension and
	// pay no extra datapath cost.
	TraceSample int
}

// The sender's write budget. sendTimeout bounds each socket write. A
// flush whose write fails redials up to redials times, sleeping
// redialBackoff before the first redial and doubling it before each next.
const (
	sendTimeout   = 100 * time.Millisecond
	redials       = 3
	redialBackoff = 5 * time.Millisecond
)

// SenderStats are cumulative sender counters.
type SenderStats struct {
	Sent       uint64
	SendErrors uint64 // socket writes that failed (relay death, timeout)
	Reconnects uint64 // successful redials after a write error
	TxErrors   uint64 // packets given up once a flush's redial budget is spent
}

// Sender emits DAQ messages as mode-0 DMTP datagrams over UDP. Every
// message goes through one flush ring; a flush whose write fails redials
// and resends with bounded exponential backoff, so a relay restart does
// not wedge the source.
type Sender struct {
	cfg   SenderConfig
	raddr *net.UDPAddr

	mu sync.Mutex
	// bconn is the kernel-batch datapath over the connected socket; nil
	// from a failed write until the next flush redials.
	bconn *batchConn
	stats SenderStats
	// failed counts the consecutive failed writes; the reconnect event
	// carries it.
	failed uint64
	// encap builds the mode-0 packets and counts messages (not send
	// attempts), which drives trace sampling and trace-ID assignment.
	encap dmtp.Encap
	// deadlineArmed is when the socket write deadline was last set; the
	// deadline is only re-armed after sendTimeout/4 so the per-send
	// deadline syscall cost is amortized across many writes.
	deadlineArmed time.Time

	// The flush ring: batch[:batchN] are encoded packets awaiting one
	// flush. The flush timer is armed only when the ring goes non-empty
	// (first enqueue) so an idle sender schedules no wakeups and the
	// packets-per-syscall histogram sees no empty flushes.
	batch  [][]byte
	batchN int
	flushT *time.Timer
	done   chan struct{}
	closed bool
	wg     sync.WaitGroup

	bstats batchStats
}

// BatchStats returns the sender's kernel-batch datapath counters.
func (s *Sender) BatchStats() BatchStats { return s.bstats.snapshot() }

// BatchCaps reports which kernel batching features the sender's socket
// probed to (the zero value while the socket is down between a failed
// write and the redial).
func (s *Sender) BatchCaps() BatchCaps {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bconn == nil {
		return BatchCaps{}
	}
	return s.bconn.Caps()
}

// NewSenderWithConfig dials cfg.Dst and starts the ring's flush timer.
func NewSenderWithConfig(cfg SenderConfig) (*Sender, error) {
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = 500 * time.Microsecond
	}
	raddr, err := net.ResolveUDPAddr("udp4", cfg.Dst)
	if err != nil {
		return nil, fmt.Errorf("live: resolve %q: %w", cfg.Dst, err)
	}
	s := &Sender{
		cfg:   cfg,
		raddr: raddr,
		encap: dmtp.Encap{Experiment: cfg.Experiment, TraceSample: cfg.TraceSample},
		batch: make([][]byte, max(cfg.BatchSize, 1)),
		done:  make(chan struct{}),
	}
	if err := s.dial(); err != nil {
		return nil, err
	}
	for i := range s.batch {
		s.batch[i] = make([]byte, 0, 2048)
	}
	s.flushT = time.NewTimer(time.Hour)
	if !s.flushT.Stop() {
		<-s.flushT.C
	}
	s.wg.Add(1)
	go s.flushLoop()
	return s, nil
}

// dial (re)establishes the connected socket and the kernel-batch
// datapath over it (sendmmsg + GSO where the socket supports them;
// senders never read, so no receive ring is built). Callers hold s.mu or
// are the constructor.
func (s *Sender) dial() error {
	conn, err := net.DialUDP("udp4", nil, s.raddr)
	if err != nil {
		return fmt.Errorf("live: dial %v: %w", s.raddr, err)
	}
	s.bconn = newBatchConn(conn, &s.bstats, false)
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
// sees at least ¾·sendTimeout of margin, and the steady-state fast path
// skips the per-send deadline update, which costs a substantial fraction of
// the write itself on loopback.
func (s *Sender) armDeadlineLocked() {
	t := time.Now()
	if !s.deadlineArmed.IsZero() && t.Sub(s.deadlineArmed) < sendTimeout/4 {
		return
	}
	s.bconn.c.SetWriteDeadline(t.Add(sendTimeout))
	s.deadlineArmed = t
}

// Send encodes one message for the given instrument slice into the flush
// ring. When that fills the ring, Send flushes it and returns the flush's
// error: the last write error once the redial budget is spent.
func (s *Sender) Send(msg []byte, slice uint8) error {
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
	if s.batchN == len(s.batch) {
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

// flushLocked writes every queued packet as one batch. A write error
// drops the socket — relay death surfaces as ECONNREFUSED, the ICMP
// port-unreachable of an earlier write failing a later one on the
// connected socket — and the flush redials within the write budget and
// rewrites only the unsent tail, so each packet leaves once, with the
// bytes (and trace ID) it was encoded with. A tail still unsent when the
// budget is spent is given up, counted in TxErrors and
// dmtp.live.tx.errors, and the last error returned. The backoff sleeps
// hold s.mu: the unsent tail lives in the ring, and a Send that waits for
// it is held back instead of queueing past a dead relay.
func (s *Sender) flushLocked() error {
	n := s.batchN
	s.batchN = 0
	sent := 0
	backoff := redialBackoff
	var err error
	for attempt := 0; sent < n; attempt++ {
		if attempt > 0 {
			if attempt > redials {
				s.stats.TxErrors += uint64(n - sent)
				return fmt.Errorf("live: send: %w", err)
			}
			time.Sleep(backoff)
			backoff *= 2
		}
		if s.bconn == nil {
			if err = s.dial(); err != nil {
				continue
			}
			s.stats.Reconnects++
			s.cfg.Recorder.Record(metrics.EvReconnect, 0, 0, s.failed)
		}
		s.armDeadlineLocked()
		var k int
		k, err = s.bconn.WriteBatch(s.batch[sent:n])
		sent += k
		s.stats.Sent += uint64(k)
		if err == nil {
			s.failed = 0
			continue
		}
		s.stats.SendErrors++
		s.failed++
		s.bconn.c.Close()
		s.bconn = nil
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

// RegisterMetrics publishes the sender's dmtp.tx.* counters, its
// transmit errors and its kernel-batch counters on reg as one set, read
// under one hold of the sender lock at scrape time only.
func (s *Sender) RegisterMetrics(reg *metrics.Registry) {
	names := []string{metrics.MetricTxSent, metrics.MetricTxSendErrors, metrics.MetricTxReconnects}
	reg.RegisterSet(append(names, liveNames...), func(dst []int64) {
		st := s.Stats()
		dst[0], dst[1], dst[2] = int64(st.Sent), int64(st.SendErrors), int64(st.Reconnects)
		s.bstats.fill(dst[3:], st.TxErrors)
	})
	s.bstats.install(reg)
}

// LocalAddr returns the sender's bound address.
func (s *Sender) LocalAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bconn == nil {
		return ""
	}
	return s.bconn.c.LocalAddr().String()
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
	if s.bconn != nil {
		err = s.bconn.c.Close()
		s.bconn = nil
	}
	s.flushT.Stop()
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	return err
}
