package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dmtp"
	"repro/internal/wire"
)

// fakeClockPipeline builds a sender→relay→receiver pipeline whose relay
// and receiver share one FakeClock, so NAK/ack timing is driven by
// Advance instead of wall-clock sleeps. Packets still cross real loopback
// sockets; only protocol time is virtual.
func fakeClockPipeline(t *testing.T, fc *dmtp.FakeClock, dropEveryN int, rcfg ReceiverConfig) (*Sender, *Relay, *Receiver) {
	t.Helper()
	rcfg.Listen = "127.0.0.1:0"
	rcfg.Clock = fc
	recv, err := NewReceiver(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	relay, err := NewRelay(RelayConfig{
		Listen:        "127.0.0.1:0",
		CapacityBytes: testCapacity,
		Forward:       recv.Addr(),
		MaxAge:        time.Hour,
		DropEveryN:    dropEveryN,
		Clock:         fc,
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
	return snd, relay, recv
}

// TestLiveWriteOffWithFakeClock drives the NAK retry/write-off machinery
// entirely through an injected FakeClock: the NAKDelay, every backoff and
// the final permanent-loss decision fire on Advance, with no sleeps for
// protocol timing (only socket delivery is awaited).
func TestLiveWriteOffWithFakeClock(t *testing.T) {
	fc := dmtp.NewFakeClock(0)
	var mu sync.Mutex
	var gaps []uint64
	snd, relay, recv := fakeClockPipeline(t, fc, 3, ReceiverConfig{
		NAKDelay:    5 * time.Millisecond,
		NAKRetry:    5 * time.Millisecond,
		NAKRetryMax: 20 * time.Millisecond,
		MaxNAKs:     2,
		Seed:        1,
		OnGap: func(_ wire.ExperimentID, seq uint64) {
			mu.Lock()
			gaps = append(gaps, seq)
			mu.Unlock()
		},
	})

	// Four sends; the relay drops seq 3 on egress (after stashing it).
	for i := 0; i < 4; i++ {
		if err := snd.Send([]byte(fmt.Sprintf("m%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return recv.Stats().Received >= 3 }, "socket delivery")
	if got := recv.OutstandingGaps(); got != 1 {
		t.Fatalf("outstanding gaps %d", got)
	}

	// Cold the buffer so recovery cannot succeed and the retry cap must
	// write the gap off.
	relay.Crash()
	if err := relay.Restart(); err != nil {
		t.Fatal(err)
	}

	// Drive protocol time deterministically: each pending timer fires on
	// its exact due tick. No wall-clock sleeps between NAK retries.
	for i := 0; i < 20 && recv.OutstandingGaps() > 0; i++ {
		at, ok := fc.NextAt()
		if !ok {
			break
		}
		fc.AdvanceTo(at)
		// A fire that NAKs has sent the NAK by now; wait until the relay
		// served it (the NAK→miss round trip landed), not for a fixed time.
		waitFor(t, 5*time.Second, func() bool { return relay.Stats().NAKs == recv.Stats().NAKsSent }, "NAK service")
	}
	st := recv.Stats()
	if st.PermanentLoss != 1 || recv.OutstandingGaps() != 0 {
		t.Fatalf("write-off did not happen: %+v gaps=%d", st, recv.OutstandingGaps())
	}
	if st.NAKsSent != 2 {
		t.Fatalf("NAKs sent %d, want MaxNAKs=2", st.NAKsSent)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gaps) != 1 || gaps[0] != 3 {
		t.Fatalf("OnGap reported %v, want [3]", gaps)
	}
	if relay.Stats().Misses == 0 {
		t.Fatal("cold relay buffer never missed a NAK")
	}
}

// TestLiveRelayTrimReleasesPooledBuffers exercises the cumulative-ACK
// path end to end: the receiver's ack timer (fake-clock driven) sends a
// cumulative ACK, the relay's shared BufferEngine trims every acked stash
// entry, and each trimmed entry is released back to the relay's stash log.
func TestLiveRelayTrimReleasesPooledBuffers(t *testing.T) {
	var released atomic.Uint64
	orig := recycle
	recycle = func(l *wire.StashLog, b []byte) {
		released.Add(1)
		orig(l, b)
	}
	t.Cleanup(func() { recycle = orig })

	fc := dmtp.NewFakeClock(0)
	snd, relay, recv := fakeClockPipeline(t, fc, 0, ReceiverConfig{
		AckInterval: 10 * time.Millisecond,
		Seed:        1,
	})

	const n = 10
	for i := 0; i < n; i++ {
		if err := snd.Send([]byte(fmt.Sprintf("payload-%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return recv.Stats().Delivered >= n }, "delivery")
	if relay.BufferedBytes() == 0 {
		t.Fatal("nothing stashed before the ack")
	}

	// Fire the ack timer: cumulative ACK for the full floor goes to the
	// relay, which trims the whole stash.
	fc.Advance(10 * time.Millisecond)
	waitFor(t, 5*time.Second, func() bool { return relay.Stats().Trimmed >= n }, "trim")
	if got := relay.BufferedBytes(); got != 0 {
		t.Fatalf("stash not emptied: %d bytes", got)
	}
	if got := released.Load(); got != n {
		t.Fatalf("released %d pooled buffers, want %d", got, n)
	}
}
