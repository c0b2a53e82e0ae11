package live

import (
	"net"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dmtp"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// The receiver's timers on the wall clock, with no injected clock: they
// fire on the read goroutine, an idle socket wakes for them at its read
// deadline, and the NAKs and ACKs a read finds due leave batched.

// relayStub plays the relay for one receiver from a plain socket: it sends
// sequenced packets naming itself as the retransmission buffer, and reads
// the NAKs and ACKs that come back.
type relayStub struct {
	t    *testing.T
	conn *net.UDPConn
	bc   *batchConn
	self wire.Addr
	to   netip.AddrPort
}

func newRelayStub(t *testing.T, recv *Receiver) *relayStub {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	conn.SetReadBuffer(4 << 20)
	to, err := netip.ParseAddrPort(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	self, err := toWireAddr(conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	s := &relayStub{t: t, conn: conn, bc: newBatchConn(conn, &batchStats{}, false), self: self, to: to}
	t.Cleanup(func() { conn.Close() })
	return s
}

// pkt encodes packet seq of the stream on slice.
func (s *relayStub) pkt(slice uint8, seq uint64) []byte {
	h := wire.Header{
		ConfigID:   1,
		Features:   wire.FeatSequenced | wire.FeatReliable,
		Experiment: wire.NewExperimentID(7, slice),
	}
	h.Seq.Seq = seq
	h.Retransmit.Buffer = s.self
	enc, err := h.AppendTo(nil)
	if err != nil {
		s.t.Fatal(err)
	}
	return append(enc, "payload"...)
}

// send writes pkts in one batch, which equal sizes make one GSO datagram
// where the kernel offers it.
func (s *relayStub) send(pkts ...[]byte) {
	if _, err := s.bc.WriteBatchTo(pkts, s.to); err != nil {
		s.t.Fatal(err)
	}
}

// next returns the next control packet to arrive within timeout.
func (s *relayStub) next(timeout time.Duration) (wire.View, bool) {
	buf := make([]byte, 2048)
	s.conn.SetReadDeadline(time.Now().Add(timeout))
	n, _, err := s.conn.ReadFromUDP(buf)
	if err != nil {
		return nil, false
	}
	return wire.View(buf[:n]), true
}

// nextNAK waits up to timeout for a NAK and returns its ranges.
func (s *relayStub) nextNAK(timeout time.Duration) []wire.SeqRange {
	s.t.Helper()
	for deadline := time.Now().Add(timeout); ; {
		v, ok := s.next(time.Until(deadline))
		if !ok {
			s.t.Fatalf("no NAK within %v", timeout)
		}
		if v.ConfigID() == wire.ConfigNAK {
			var nak wire.NAK
			if err := nak.DecodeFrom(v); err != nil {
				s.t.Fatal(err)
			}
			return nak.Ranges
		}
	}
}

// TestReceiverIdleLinkNAKsOnDeadline sends seqs 1, 2, 4 and then nothing,
// so no read can carry the NAK for 3 out: it must leave when the socket's
// read deadline passes, NAKDelay after the gap, and recover. Then seq 6
// goes missing with the relay gone silent: MaxNAKs requests and one
// write-off, on the backoff schedule's wall time.
func TestReceiverIdleLinkNAKsOnDeadline(t *testing.T) {
	const (
		nakDelay = 20 * time.Millisecond
		nakRetry = 10 * time.Millisecond
		retryMax = 40 * time.Millisecond
		maxNAKs  = 3
		slack    = 300 * time.Millisecond
	)
	var (
		mu              sync.Mutex
		recovered, lost []uint64
		lostAt          time.Time
	)
	recv, err := NewReceiver(ReceiverConfig{
		Listen:      "127.0.0.1:0",
		NAKDelay:    nakDelay,
		NAKRetry:    nakRetry,
		NAKRetryMax: retryMax,
		MaxNAKs:     maxNAKs,
		Seed:        1,
		OnMessage: func(m Message) {
			if m.Recovered {
				mu.Lock()
				recovered = append(recovered, m.Seq)
				mu.Unlock()
			}
		},
		OnGap: func(_ wire.ExperimentID, seq uint64) {
			mu.Lock()
			lost, lostAt = append(lost, seq), time.Now()
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	relay := newRelayStub(t, recv)
	want := func(got []wire.SeqRange, seq uint64) {
		t.Helper()
		if len(got) != 1 || got[0] != (wire.SeqRange{From: seq, To: seq}) {
			t.Fatalf("NAK requests %v, want %d", got, seq)
		}
	}

	start := time.Now()
	relay.send(relay.pkt(0, 1), relay.pkt(0, 2), relay.pkt(0, 4))
	want(relay.nextNAK(nakDelay+slack), 3)
	if d := time.Since(start); d < nakDelay || d > nakDelay+slack {
		t.Fatalf("NAK for 3 arrived %v after the gap, want %v plus at most %v", d, nakDelay, slack)
	}
	relay.send(relay.pkt(0, 3))
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return slices.Equal(recovered, []uint64{3})
	}, "seq 3 recovered")

	start = time.Now()
	relay.send(relay.pkt(0, 5), relay.pkt(0, 7))
	for i := 0; i < maxNAKs; i++ {
		want(relay.nextNAK(nakDelay+retryMax+slack), 6)
	}
	// Retry n waits backoff(n) = min(nakRetry·2^(n-1), retryMax), jittered
	// into [½, 1½)×; the fire after the last retry writes the gap off.
	var backoffs time.Duration
	for n := 1; n <= maxNAKs; n++ {
		backoffs += min(nakRetry<<(n-1), retryMax)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return slices.Equal(lost, []uint64{6})
	}, "seq 6 written off")
	mu.Lock()
	d := lostAt.Sub(start)
	mu.Unlock()
	if lo, hi := nakDelay+backoffs/2, nakDelay+backoffs*3/2+slack; d < lo || d > hi {
		t.Fatalf("seq 6 written off %v after the gap, want within [%v, %v]", d, lo, hi)
	}
	if st := recv.Stats(); st.NAKsSent != 1+maxNAKs || st.PermanentLoss != 1 {
		t.Fatalf("stats %+v, want %d NAKs and one write-off", st, 1+maxNAKs)
	}
}

// TestReceiverBatchesACKs gives 64 streams one packet each in one burst, so
// their ACK timers arm at one reading and fall due together: each ACK round
// leaves in one send, GSO-coalesced where the kernel offers it, with no
// goroutine per timer. The test drives both rounds itself, sending each
// stream's next packet once every stream has ACKed its first: a receiver
// whose read goroutine is starved past four ACK intervals correctly stops
// re-arming after one round, so waiting for a second unprompted one would
// test the scheduler, not the receiver.
func TestReceiverBatchesACKs(t *testing.T) {
	const streams = 64
	base := runtime.NumGoroutine()
	recv, err := NewReceiver(ReceiverConfig{Listen: "127.0.0.1:0", AckInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	relay := newRelayStub(t, recv)
	before := recv.BatchStats()
	acked := map[wire.ExperimentID]uint64{}
	acks, peak := 0, 0
	// round sends every stream its packet seq in one burst and reads ACKs
	// until each stream has acknowledged it.
	round := func(seq uint64) {
		t.Helper()
		pkts := make([][]byte, streams)
		for i := range pkts {
			pkts[i] = relay.pkt(uint8(i), seq)
		}
		relay.send(pkts...)
		for deadline, done := time.Now().Add(5*time.Second), 0; done < streams; {
			v, ok := relay.next(time.Until(deadline))
			if !ok {
				t.Fatalf("%d of %d streams ACKed seq %d within 5s", done, streams, seq)
			}
			peak = max(peak, runtime.NumGoroutine())
			if v.ConfigID() != wire.ConfigAck {
				continue
			}
			ack, err := wire.DecodeAck(v)
			if err != nil {
				t.Fatal(err)
			}
			acks++
			if prev := acked[ack.Experiment]; prev < seq && ack.CumulativeSeq >= seq {
				done++
			}
			acked[ack.Experiment] = max(acked[ack.Experiment], ack.CumulativeSeq)
		}
	}
	round(1)
	round(2)
	// The stub can read an ACK before the receiver's send returns and
	// counts it.
	waitFor(t, 5*time.Second, func() bool {
		return recv.BatchStats().SentPackets-before.SentPackets >= uint64(acks)
	}, "the receiver to count the ACKs it sent")
	after := recv.BatchStats()
	// Syscalls counts the two bursts' reads too, which only makes the
	// per-syscall bound stricter.
	sent, calls := after.SentPackets-before.SentPackets, after.Syscalls-before.Syscalls
	if after.Fallbacks == 0 && sent < 8*calls {
		t.Fatalf("%d ACKs in %d syscalls, want at least 8 per syscall", sent, calls)
	}
	if grown := peak - base; grown > 4 {
		t.Fatalf("%d goroutines more than before the receiver, with %d streams ACKing", grown, streams)
	}
}

// TestReceiverDeliversEachDatagram: when one read returns two
// super-datagrams, the first one's messages reach OnMessage before the
// second one is ingested. The read goroutine is held inside the callback
// for a first packet while both are sent, so the next read finds them
// queued together.
func TestReceiverDeliversEachDatagram(t *testing.T) {
	const per = 8 // packets per super-datagram
	var (
		self     atomic.Pointer[Receiver]
		held     = make(chan struct{})
		release  = make(chan struct{})
		received []uint64 // Stats().Received as each message is delivered, by seq
	)
	recv, err := NewReceiver(ReceiverConfig{
		Listen: "127.0.0.1:0",
		OnMessage: func(m Message) {
			if m.Seq == 1 {
				close(held)
				<-release
			}
			received = append(received, self.Load().Stats().Received)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	self.Store(recv)
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before Close, which waits for the read goroutine
	if !recv.bc.Caps().Mmsg {
		t.Skip("no recvmmsg: every read returns one datagram")
	}
	relay := newRelayStub(t, recv)
	relay.send(relay.pkt(0, 1))
	<-held
	syscalls := recv.BatchStats().Syscalls
	for first := uint64(2); first < 2+2*per; first += per {
		pkts := make([][]byte, per)
		for i := range pkts {
			pkts[i] = relay.pkt(0, first+uint64(i))
		}
		relay.send(pkts...)
	}
	unblock()
	waitFor(t, 5*time.Second, func() bool { return recv.Stats().Delivered == 1+2*per }, "every message delivered")
	if reads := recv.BatchStats().Syscalls - syscalls; reads != 1 {
		t.Fatalf("the two super-datagrams took %d reads, want 1", reads)
	}
	// Close waits for the read goroutine, so every callback has returned
	// and received is complete.
	recv.Close()
	for i, n := range received[1 : 1+per] {
		if n > 1+per {
			t.Fatalf("seq %d delivered with %d packets ingested, want the second super-datagram not yet ingested (at most %d): %v", 2+i, n, 1+per, received)
		}
	}
}

// TestReceiverCloseWithDeadlinePending: a receiver asleep in its read, its
// deadline an hour off for a NAK timer, closes at once.
func TestReceiverCloseWithDeadlinePending(t *testing.T) {
	recv, err := NewReceiver(ReceiverConfig{Listen: "127.0.0.1:0", NAKDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	relay := newRelayStub(t, recv)
	relay.send(relay.pkt(0, 1), relay.pkt(0, 3))
	waitFor(t, 5*time.Second, func() bool { return recv.OutstandingGaps() == 1 }, "the gap")
	start := time.Now()
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a read deadline pending", d)
	}
}

// TestReceiverCountsMalformed: a datagram too short to check and a data
// packet cut one byte short each raise dmtp.rx.malformed by exactly one. A
// mode-0 packet sent after each, on the same socket, marks when the
// receiver has read it.
func TestReceiverCountsMalformed(t *testing.T) {
	recv, err := NewReceiver(ReceiverConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	reg := metrics.NewRegistry()
	recv.RegisterMetrics(reg)
	raddr, err := net.ResolveUDPAddr("udp4", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp4", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h := wire.Header{ConfigID: dmtp.ModeLive.ConfigID, Features: dmtp.ModeLive.Features, Experiment: wire.NewExperimentID(5, 0)}
	data, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, bad := range [][]byte{{0, 0, 0}, data[:len(data)-1]} {
		if _, err := conn.Write(bad); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(mode0Pkt(t, 5, "x")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool { return recv.Stats().Delivered == uint64(i+1) }, "the marker packet")
		if got, _ := metrics.SampleValue(reg.Snapshot(), metrics.MetricRxMalformed); got != int64(i+1) {
			t.Fatalf("after %d malformed datagrams: %s %d", i+1, metrics.MetricRxMalformed, got)
		}
	}
}

// TestReceiverScrapeIsOneHold: a scrape reads the receiver under one hold
// of its lock, so its values come from one instant. A mode-0 packet is
// received, delivered and counted unsequenced within one hold, so while a
// stream of them arrives every scrape reads the three equal; a scrape that
// took the lock once per value reads them apart whenever the read loop
// gets in between.
func TestReceiverScrapeIsOneHold(t *testing.T) {
	recv, err := NewReceiver(ReceiverConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	reg := metrics.NewRegistry()
	recv.RegisterMetrics(reg)
	raddr, err := net.ResolveUDPAddr("udp4", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp4", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pkt := mode0Pkt(t, 5, "x")
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				conn.Write(pkt)
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	read := func() (rcv, dlv, uns int64) {
		snap := reg.Snapshot()
		rcv, _ = metrics.SampleValue(snap, metrics.MetricRxReceived)
		dlv, _ = metrics.SampleValue(snap, metrics.MetricRxDelivered)
		uns, _ = metrics.SampleValue(snap, metrics.MetricRxUnsequenced)
		return rcv, dlv, uns
	}
	// Scrape until thirty scrapes have seen the stream move on since
	// the one before, checking every scrape.
	deadline := time.Now().Add(10 * time.Second)
	prev, moved := int64(0), 0
	for i := 0; moved < 30; i++ {
		rcv, dlv, uns := read()
		if rcv != dlv || dlv != uns {
			t.Fatalf("scrape %d read received %d, delivered %d, unsequenced %d: not one instant", i, rcv, dlv, uns)
		}
		if rcv != prev {
			prev, moved = rcv, moved+1
		}
		if time.Now().After(deadline) {
			t.Fatalf("the stream moved on in only %d of %d scrapes", moved, i+1)
		}
	}
}
