package live

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dmtp"
	"repro/internal/wire"
)

// testCapacity is the stash a test relay holds when its subject is not the
// stash's capacity. The 64 MiB default costs each relay a 72 MiB arena,
// reserved and, when reused, zeroed; TestLoopbackAllocsPerMessage keeps
// the default, so one test still runs the relay as deployed.
const testCapacity = 4 << 20

// waitFor polls cond up to timeout.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// probeUntil nudges a stream toward done() one flush at a time and
// reports whether done() came to hold with no gap outstanding. A lossy
// path can hide a dropped tail until later traffic arrives, so tests
// must keep the sequence space moving — but every flush may itself be
// dropped and open a gap that lives at least a NAK delay, so flushing on
// a fixed cadence can make "no gaps outstanding" unreachable. Here a
// flush goes out only while no gap is open and done() does not hold yet:
// injection pauses until the previous probe's gap has closed and stops
// for good once the target is met, which makes the exit condition a
// fixed point rather than a scheduling accident.
func probeUntil(timeout time.Duration, flush func(), gaps func() int, done func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if gaps() == 0 {
			if done() {
				return true
			}
			flush()
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

func pipeline(t *testing.T, dropEveryN int, rcfg ReceiverConfig) (*Sender, *Relay, *Receiver, *sync.Map) {
	t.Helper()
	var delivered sync.Map
	var count int
	var mu sync.Mutex
	userCB := rcfg.OnMessage
	rcfg.Listen = "127.0.0.1:0"
	rcfg.OnMessage = func(m Message) {
		mu.Lock()
		count++
		mu.Unlock()
		delivered.Store(m.Seq, struct{}{}) // m.Payload dies with this call
		if userCB != nil {
			userCB(m)
		}
	}
	recv, err := NewReceiver(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	relay, err := NewRelay(RelayConfig{
		Listen:         "127.0.0.1:0",
		CapacityBytes:  testCapacity,
		Forward:        recv.Addr(),
		MaxAge:         5 * time.Second,
		DeadlineBudget: 10 * time.Second,
		DropEveryN:     dropEveryN,
	})
	if err != nil {
		recv.Close()
		t.Fatal(err)
	}
	snd, err := NewSenderWithConfig(SenderConfig{Dst: relay.Addr(), Experiment: 777})
	if err != nil {
		relay.Close()
		recv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		snd.Close()
		relay.Close()
		recv.Close()
	})
	return snd, relay, recv, &delivered
}

func TestLiveLosslessDelivery(t *testing.T) {
	snd, relay, recv, _ := pipeline(t, 0, ReceiverConfig{})
	const n = 200
	for i := 0; i < n; i++ {
		if err := snd.Send([]byte(fmt.Sprintf("msg-%d", i)), 2); err != nil {
			t.Fatal(err)
		}
		if i%25 == 24 {
			time.Sleep(time.Millisecond) // mode 0 is unreliable; don't outrun loopback
		}
	}
	waitFor(t, 5*time.Second, func() bool { return recv.Stats().Delivered >= n }, "delivery")
	st := recv.Stats()
	if st.Duplicates != 0 || st.PermanentLoss != 0 {
		t.Fatalf("stats %+v", st)
	}
	if relay.Stats().Upgraded != n {
		t.Fatalf("relay upgraded %d", relay.Stats().Upgraded)
	}
	if snd.Sent() != n {
		t.Fatalf("sent %d", snd.Sent())
	}
}

func TestLiveRecoveryFromInjectedLoss(t *testing.T) {
	snd, relay, recv, delivered := pipeline(t, 10, ReceiverConfig{
		NAKDelay: time.Millisecond,
		NAKRetry: 10 * time.Millisecond,
		MaxNAKs:  10,
	})
	const n = 300
	for i := 0; i < n; i++ {
		if err := snd.Send([]byte(fmt.Sprintf("payload-%04d", i)), 0); err != nil {
			t.Fatal(err)
		}
		if i%25 == 24 {
			time.Sleep(time.Millisecond) // mode 0 is unreliable; don't outrun loopback
		}
	}
	// Every 10th packet is dropped at the relay; recovery must restore
	// all but possibly the tail (a trailing drop leaves no later packet
	// to reveal the gap — inherent to NAK schemes).
	waitFor(t, 10*time.Second, func() bool {
		st := recv.Stats()
		return st.Delivered+st.PermanentLoss >= n-1 && recv.OutstandingGaps() == 0
	}, "recovery")
	st := recv.Stats()
	if st.Recovered == 0 || st.NAKsSent == 0 {
		t.Fatalf("no recovery happened: %+v", st)
	}
	rs := relay.Stats()
	if rs.InjectedDrops == 0 || rs.Retransmits == 0 {
		t.Fatalf("relay stats %+v", rs)
	}
	// All non-tail sequence numbers delivered exactly once.
	for seq := uint64(1); seq < n; seq++ {
		if _, ok := delivered.Load(seq); !ok {
			t.Fatalf("seq %d never delivered", seq)
		}
	}
}

func TestLiveModeUpgradeVisibleAtReceiver(t *testing.T) {
	var gotMu sync.Mutex
	var got []Message
	snd, _, recv, _ := pipeline(t, 0, ReceiverConfig{OnMessage: func(m Message) {
		m.Payload = bytes.Clone(m.Payload) // kept past the callback
		gotMu.Lock()
		got = append(got, m)
		gotMu.Unlock()
	}})
	if err := snd.Send([]byte("x"), 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return recv.Stats().Delivered >= 1 }, "delivery")
	gotMu.Lock()
	defer gotMu.Unlock()
	m := got[0]
	if m.Seq != 1 {
		t.Fatalf("seq %d; relay should have assigned 1", m.Seq)
	}
	if m.Experiment.Experiment() != 777 || m.Experiment.Slice() != 3 {
		t.Fatalf("experiment %v", m.Experiment)
	}
	if m.Latency < 0 {
		t.Fatal("origin timestamp missing after upgrade")
	}
	if string(m.Payload) != "x" {
		t.Fatalf("payload %q", m.Payload)
	}
}

func TestLiveAddrConversions(t *testing.T) {
	w := wire.AddrFrom(127, 0, 0, 1, 4567)
	back, err := toWireAddr(net.UDPAddrFromAddrPort(addrPort(w)))
	if err != nil {
		t.Fatal(err)
	}
	if back != w {
		t.Fatalf("round trip %v != %v", back, w)
	}
}

func TestSeqsToRanges(t *testing.T) {
	got := dmtp.ToRanges([]uint64{1, 2, 3, 9})
	if len(got) != 2 || got[0] != (wire.SeqRange{From: 1, To: 3}) || got[1] != (wire.SeqRange{From: 9, To: 9}) {
		t.Fatalf("ranges %v", got)
	}
}

// TestSenderCountsAbandonedTail: a flush that spends its redial budget
// counts the packets it gives up in Stats().TxErrors, with no metrics
// registry attached. The relay is gone for good: the socket fails every
// write after the first k, and no redial succeeds (the sender's address
// is IPv6, which a udp4 dial refuses before it connects).
func TestSenderCountsAbandonedTail(t *testing.T) {
	const ring, k = 8, 3
	snd, err := NewSenderWithConfig(SenderConfig{Dst: "127.0.0.1:9", Experiment: 901, BatchSize: ring, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	stub := newStubConn()
	stub.failFrom = k
	snd.mu.Lock()
	snd.bconn.c.Close()
	snd.bconn = newBatchConn(stub, &snd.bstats, false)
	snd.raddr = &net.UDPAddr{IP: net.IPv6loopback, Port: 9}
	snd.mu.Unlock()

	for i := range ring {
		err = snd.Send([]byte("tail"), 0)
		if i < ring-1 && err != nil {
			t.Fatalf("Send %d flushed early: %v", i, err)
		}
	}
	if err == nil {
		t.Fatal("the flush that gave up its tail returned no error")
	}
	if st := snd.Stats(); st.Sent != k || st.TxErrors != ring-k || st.SendErrors != 1 || st.Reconnects != 0 {
		t.Fatalf("stats %+v; want %d sent, %d tx errors, one failed write and no reconnect", st, k, ring-k)
	}
}
