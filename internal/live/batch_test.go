package live

// Portable-path batchConn tests. These run on every platform: a stub
// UDPConn is not a *net.UDPConn, so batchConn must serve it through the
// loop-over-single-syscall fallback — the same route wrapped (fault
// middleware) sockets and non-Linux builds take.

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// stubConn scripts UDPConn behavior for fallback tests.
type stubConn struct {
	mu       sync.Mutex
	written  [][]byte         // packets accepted by Write/WriteToUDPAddrPort
	to       []netip.AddrPort // each accepted packet's address (zero for Write)
	failFrom int              // fail writes once this many have succeeded (-1 = never)
	inbox    [][]byte         // packets served by ReadFromUDP, in order
}

func newStubConn() *stubConn { return &stubConn{failFrom: -1} }

var errStubWrite = errors.New("stub: scripted write failure")

func (s *stubConn) write(b []byte, to netip.AddrPort) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failFrom >= 0 && len(s.written) >= s.failFrom {
		return 0, errStubWrite
	}
	s.written = append(s.written, append([]byte(nil), b...))
	s.to = append(s.to, to)
	return len(b), nil
}

func (s *stubConn) Write(b []byte) (int, error) { return s.write(b, netip.AddrPort{}) }
func (s *stubConn) WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error) {
	return s.write(b, to)
}

func (s *stubConn) ReadFromUDP(b []byte) (int, *net.UDPAddr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.inbox) == 0 {
		return 0, nil, errors.New("stub: inbox empty")
	}
	pkt := s.inbox[0]
	s.inbox = s.inbox[1:]
	return copy(b, pkt), nil, nil
}

func (s *stubConn) LocalAddr() net.Addr              { return &net.UDPAddr{} }
func (s *stubConn) Close() error                     { return nil }
func (s *stubConn) SetReadBuffer(int) error          { return nil }
func (s *stubConn) SetReadDeadline(time.Time) error  { return nil }
func (s *stubConn) SetWriteDeadline(time.Time) error { return nil }

func pktOf(n, fill int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(fill)
	}
	return p
}

func TestBatchConnFallbackWritePartialFailure(t *testing.T) {
	stub := newStubConn()
	stub.failFrom = 2 // third write fails
	var stats batchStats
	bc := newBatchConn(stub, &stats, false)
	if caps := bc.Caps(); caps.Mmsg || caps.GSO || caps.GRO {
		t.Fatalf("stub conn probed kernel caps: %+v", caps)
	}

	pkts := [][]byte{pktOf(64, 1), pktOf(64, 2), pktOf(64, 3), pktOf(64, 4)}
	sent, err := bc.WriteBatch(pkts)
	if err == nil {
		t.Fatal("scripted failure did not surface")
	}
	if sent != 2 {
		t.Fatalf("sent = %d, want 2 (packets before the failure)", sent)
	}
	if got := stats.snapshot(); got.SentPackets != 2 || got.Fallbacks == 0 {
		t.Fatalf("stats = %+v, want SentPackets=2 and Fallbacks>0", got)
	}
	// The unsent tail is pkts[sent:] — the caller's accounting contract.
	if string(stub.written[1]) != string(pkts[1]) {
		t.Fatal("delivered packets do not match the accepted prefix")
	}
}

func TestBatchConnFallbackWriteTo(t *testing.T) {
	stub := newStubConn()
	var stats batchStats
	bc := newBatchConn(stub, &stats, false)
	pkts := [][]byte{pktOf(10, 7), pktOf(20, 8)}
	dst := netip.MustParseAddrPort("127.0.0.1:9")
	sent, err := bc.WriteBatchTo(pkts, dst)
	if err != nil || sent != 2 {
		t.Fatalf("WriteBatchTo = (%d, %v), want (2, nil)", sent, err)
	}
	if len(stub.written) != 2 || len(stub.written[1]) != 20 {
		t.Fatalf("stub saw %d writes", len(stub.written))
	}
	if stub.to[0] != dst || stub.to[1] != dst {
		t.Fatalf("stub saw writes to %v, want %v", stub.to, dst)
	}
}

func TestBatchConnFallbackReadShort(t *testing.T) {
	stub := newStubConn()
	stub.inbox = [][]byte{pktOf(33, 5)} // far smaller than the 64 KiB slot
	var stats batchStats
	bc := newBatchConn(stub, &stats, true)

	n, err := bc.ReadBatch()
	if err != nil || n != 1 {
		t.Fatalf("ReadBatch = (%d, %v), want (1, nil)", n, err)
	}
	var got [][]byte
	bc.PacketsSrc(n, func(pkt []byte, _ wire.Addr) { got = append(got, append([]byte(nil), pkt...)) })
	if len(got) != 1 || len(got[0]) != 33 || got[0][0] != 5 {
		t.Fatalf("PacketsSrc surfaced %v", got)
	}
	if st := stats.snapshot(); st.RecvPackets != 1 {
		t.Fatalf("RecvPackets = %d, want 1", st.RecvPackets)
	}
}

// TestBatchedChaosRecovery runs the full pipeline — batched sender,
// relay, receiver, all on bare sockets so the kernel datapath engages
// where available — with every 5th forwarded packet dropped, and
// asserts NAK recovery converges to complete delivery on the batched
// path.
func TestBatchedChaosRecovery(t *testing.T) {
	const tracked = 400
	var mu sync.Mutex
	delivered := make(map[string]int)

	recv, err := NewReceiver(ReceiverConfig{
		Listen:      "127.0.0.1:0",
		NAKDelay:    time.Millisecond,
		NAKRetry:    5 * time.Millisecond,
		NAKRetryMax: 50 * time.Millisecond,
		MaxNAKs:     8,
		OnMessage: func(m Message) {
			if !strings.HasPrefix(string(m.Payload), "msg-") {
				return
			}
			mu.Lock()
			delivered[string(m.Payload)]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	relay, err := NewRelay(RelayConfig{
		Listen:        "127.0.0.1:0",
		CapacityBytes: testCapacity,
		Forward:       recv.Addr(),
		MaxAge:        5 * time.Second,
		DropEveryN:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	snd, err := NewSenderWithConfig(SenderConfig{
		Dst:        relay.Addr(),
		Experiment: 42,
		BatchSize:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	for i := 0; i < tracked; i++ {
		if err := snd.Send([]byte(fmt.Sprintf("msg-%04d", i)), 0); err != nil {
			t.Fatal(err)
		}
		if i%32 == 31 {
			time.Sleep(time.Millisecond) // don't outrun loopback
		}
	}

	// Probe the sequence space with flush traffic until every tracked
	// payload has landed (a dropped tail is only revealed by later
	// packets) and no gaps remain. Every drop here is recoverable, so
	// the first write-off ends the probe and fails the test.
	start := time.Now()
	wroteOff := func() bool { return recv.Stats().PermanentLoss > 0 }
	probeUntil(20*time.Second, func() { snd.Send([]byte("flush"), 0) }, recv.OutstandingGaps, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) >= tracked
	}, wroteOff)
	if wroteOff() {
		t.Fatalf("the receiver wrote off %d sequence numbers within %v; every drop here is recoverable (relay %+v)",
			recv.Stats().PermanentLoss, time.Since(start).Round(time.Millisecond), relay.Stats())
	}
	mu.Lock()
	got := len(delivered)
	for p, n := range delivered {
		if n != 1 {
			t.Errorf("payload %q delivered %d times", p, n)
		}
	}
	mu.Unlock()
	if got != tracked {
		t.Fatalf("delivered %d/%d tracked payloads", got, tracked)
	}
	if gaps := recv.OutstandingGaps(); gaps != 0 {
		t.Fatalf("%d gaps still outstanding", gaps)
	}
	if relay.Stats().InjectedDrops == 0 {
		t.Fatal("fault injection never fired; the test proved nothing")
	}
	// On the kernel path the batched rings must actually have been used.
	if snd.BatchCaps().Mmsg {
		if bs := snd.BatchStats(); bs.Syscalls == 0 || bs.SentPackets == 0 {
			t.Fatalf("kernel caps probed but batch stats empty: %+v", bs)
		}
	}
	if relay.BatchCaps().Mmsg {
		if bs := relay.BatchStats(); bs.RecvPackets == 0 {
			t.Fatalf("relay kernel path unused: %+v", bs)
		}
	}
}
