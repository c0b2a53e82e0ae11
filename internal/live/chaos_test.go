package live

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// chaosRig is a sender→relay→receiver pipeline over loopback UDP with a
// fault plan wrapped around the relay's socket (so forwarded data AND
// retransmissions both cross the faulted egress) and payload-level delivery
// tracking: NAK schemes cannot reveal a dropped tail by themselves, so
// tests keep nudging the stream with throwaway flush messages until every
// tracked payload has landed.
type chaosRig struct {
	t     *testing.T
	snd   *Sender
	relay *Relay
	recv  *Receiver
	plan  *faults.Plan

	mu       sync.Mutex
	payloads map[string]int // delivered tracked payloads -> count
	gaps     []uint64
}

func newChaosRig(t *testing.T, spec faults.Spec, rcfg ReceiverConfig, relayOpts ...func(*RelayConfig)) *chaosRig {
	t.Helper()
	rig := &chaosRig{t: t, plan: faults.New(spec), payloads: make(map[string]int)}
	rcfg.Listen = "127.0.0.1:0"
	rcfg.Counters = rig.plan.Counters()
	rcfg.OnMessage = func(m Message) {
		if !strings.HasPrefix(string(m.Payload), "msg-") {
			return // flush traffic, not a tracked payload
		}
		rig.mu.Lock()
		rig.payloads[string(m.Payload)]++
		rig.mu.Unlock()
	}
	rcfg.OnGap = func(_ wire.ExperimentID, seq uint64) {
		rig.mu.Lock()
		rig.gaps = append(rig.gaps, seq)
		rig.mu.Unlock()
	}
	recv, err := NewReceiver(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	relayCfg := RelayConfig{
		Listen:         "127.0.0.1:0",
		CapacityBytes:  testCapacity,
		Forward:        recv.Addr(),
		MaxAge:         5 * time.Second,
		DeadlineBudget: 10 * time.Second,
		Wrap:           func(c UDPConn) UDPConn { return faults.WrapConn(c, rig.plan) },
	}
	for _, opt := range relayOpts {
		opt(&relayCfg)
	}
	relay, err := NewRelay(relayCfg)
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
	rig.snd, rig.relay, rig.recv = snd, relay, recv
	t.Cleanup(func() {
		rig.snd.Close()
		relay.Close()
		recv.Close()
	})
	return rig
}

// sendTracked emits n tracked payloads "msg-<phase>-<i>".
func (rig *chaosRig) sendTracked(phase string, n int) {
	rig.t.Helper()
	for i := 0; i < n; i++ {
		if err := rig.snd.Send([]byte(fmt.Sprintf("msg-%s-%04d", phase, i)), 0); err != nil {
			rig.t.Fatal(err)
		}
		if i%20 == 19 {
			time.Sleep(time.Millisecond) // mode 0 is unreliable; don't outrun loopback
		}
	}
}

func (rig *chaosRig) deliveredTracked() int {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	return len(rig.payloads)
}

func (rig *chaosRig) flush() { rig.snd.Send([]byte("flush"), 0) }

// driveUntilDelivered probes the stream with flush messages (which advance
// the sequence space and so reveal any dropped-tail gaps; see probeUntil)
// until want distinct tracked payloads have been delivered and no gaps
// remain outstanding.
func (rig *chaosRig) driveUntilDelivered(want int, timeout time.Duration) {
	rig.t.Helper()
	if probeUntil(timeout, rig.flush, rig.recv.OutstandingGaps, func() bool { return rig.deliveredTracked() >= want }, nil) {
		return
	}
	rig.t.Fatalf("timed out: delivered %d/%d tracked payloads, %d gaps outstanding\nrecv %+v\nsender %+v\nrelay %+v\nplan %s",
		rig.deliveredTracked(), want, rig.recv.OutstandingGaps(),
		rig.recv.Stats(), rig.snd.Stats(), rig.relay.Stats(), rig.plan.Counters())
}

// settle probes until every packet the relay has sequenced has been
// received (distinct receptions == the relay's upgraded count) and no gaps
// are outstanding. Required before a Crash in tests that assert zero
// permanent loss: a packet the relay sequenced moments ago but burst
// loss dropped on egress leaves no observable gap until later traffic
// arrives, and crashing in that window strands it unrecoverable — a test
// race, not a transport bug.
func (rig *chaosRig) settle(timeout time.Duration) {
	rig.t.Helper()
	received := func() bool {
		up := rig.relay.Stats().Upgraded
		st := rig.recv.Stats()
		return st.Received-st.Duplicates == up
	}
	if !probeUntil(timeout, rig.flush, rig.recv.OutstandingGaps, received, nil) {
		rig.t.Fatalf("timed out settling: recv %+v relay %+v", rig.recv.Stats(), rig.relay.Stats())
	}
}

// TestLiveChaosRelayRestartUnderBurstLoss is the acceptance scenario on the
// live substrate, mirroring the simulator test seed for seed: 10% Gilbert
// burst loss on the relay's egress, a relay crash/restart between two
// phases, and still 100% delivery of every tracked payload — phase-1
// losses recover before the crash empties the buffer, phase-2 losses from
// the warm post-restart buffer.
func TestLiveChaosRelayRestartUnderBurstLoss(t *testing.T) {
	rig := newChaosRig(t,
		faults.Spec{Seed: 11, BurstLoss: 0.10, MeanBurstLen: 3},
		ReceiverConfig{
			NAKDelay:    time.Millisecond,
			NAKRetry:    5 * time.Millisecond,
			NAKRetryMax: 50 * time.Millisecond,
			MaxNAKs:     30,
			Seed:        1,
		})

	rig.sendTracked("p1", 150)
	rig.driveUntilDelivered(150, 10*time.Second)
	rig.settle(5 * time.Second)

	rig.relay.Crash()
	if !rig.relay.Down() || rig.relay.BufferedBytes() != 0 {
		t.Fatalf("crash did not cold the buffer: down=%v bytes=%d",
			rig.relay.Down(), rig.relay.BufferedBytes())
	}
	if err := rig.relay.Restart(); err != nil {
		t.Fatal(err)
	}

	rig.sendTracked("p2", 150)
	rig.driveUntilDelivered(300, 10*time.Second)

	rig.mu.Lock()
	for p, n := range rig.payloads {
		if n != 1 {
			t.Errorf("payload %q delivered %d times", p, n)
		}
	}
	nGaps := len(rig.gaps)
	rig.mu.Unlock()
	st := rig.recv.Stats()
	if st.PermanentLoss != 0 || nGaps != 0 {
		t.Fatalf("permanent losses despite warm buffer: %+v gaps=%d", st, nGaps)
	}
	if st.Recovered == 0 {
		t.Fatalf("no recoveries under 10%% burst loss: %+v", st)
	}
	if rig.relay.Stats().Crashes != 1 {
		t.Fatalf("relay stats %+v", rig.relay.Stats())
	}
	c := rig.plan.Counters()
	if c.Get(faults.CounterDropBurst) == 0 {
		t.Fatalf("no burst drops recorded: %s", c)
	}
	if c.Get(telemetry.CounterRecovered) != st.Recovered {
		t.Fatalf("counter %d != stats %d", c.Get(telemetry.CounterRecovered), st.Recovered)
	}
}

// identityPayload builds a tracked payload whose tail is index-derived
// pseudo-random filler: if pool aliasing ever corrupts a retransmitted
// buffer, the result cannot collide with another valid payload by accident.
func identityPayload(phase string, i int) []byte {
	b := []byte(fmt.Sprintf("msg-%s-%04d|", phase, i))
	x := uint64(i)*2654435761 + 1
	for k := 0; k < 64; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		b = append(b, 'a'+byte((x>>33)%26))
	}
	return b
}

// TestLiveChaosByteIdentityAcrossPooledStash is the pool-aliasing guard on
// the live substrate, with the same seeds as the restart scenario: burst
// loss forces retransmissions out of the relay's pooled stash, and the
// crash between phases releases every stash buffer back to the pool, so
// phase 2 is served entirely from recycled memory. Every delivered payload
// must match its sent bytes exactly, exactly once — an unknown payload
// means a buffer was corrupted after the stash took ownership of it.
func TestLiveChaosByteIdentityAcrossPooledStash(t *testing.T) {
	rig := newChaosRig(t,
		faults.Spec{Seed: 11, BurstLoss: 0.10, MeanBurstLen: 3},
		ReceiverConfig{
			NAKDelay:    time.Millisecond,
			NAKRetry:    5 * time.Millisecond,
			NAKRetryMax: 50 * time.Millisecond,
			MaxNAKs:     30,
			Seed:        1,
		})

	want := make(map[string]bool)
	send := func(phase string, n int) {
		for i := 0; i < n; i++ {
			pl := identityPayload(phase, i)
			want[string(pl)] = true
			if err := rig.snd.Send(pl, 0); err != nil {
				t.Fatal(err)
			}
			if i%20 == 19 {
				time.Sleep(time.Millisecond)
			}
		}
	}

	send("p1", 150)
	rig.driveUntilDelivered(150, 10*time.Second)
	rig.settle(5 * time.Second)

	rig.relay.Crash() // releases every stash buffer back to the pool
	if err := rig.relay.Restart(); err != nil {
		t.Fatal(err)
	}

	send("p2", 150)
	rig.driveUntilDelivered(300, 10*time.Second)

	rig.mu.Lock()
	defer rig.mu.Unlock()
	for pl, n := range rig.payloads {
		if !want[pl] {
			t.Errorf("delivered payload %q was never sent (bytes corrupted in the pooled path)", pl)
		}
		if n != 1 {
			t.Errorf("payload %q delivered %d times", pl, n)
		}
	}
	for pl := range want {
		if rig.payloads[pl] == 0 {
			t.Errorf("payload %q never delivered", pl)
		}
	}
	if st := rig.recv.Stats(); st.Recovered == 0 {
		t.Fatalf("no recoveries — the pooled stash was never exercised: %+v", st)
	}
}

// TestLiveChaosCrashDuringRecoveryDegradesGracefully crashes the relay
// while NAK recovery is still in flight: the cold buffer can never serve
// those seqs, so the receiver must cap its retries, write the gaps off as
// permanent loss, report each via OnGap, and keep delivering around them.
func TestLiveChaosCrashDuringRecoveryDegradesGracefully(t *testing.T) {
	rig := newChaosRig(t, faults.Spec{Seed: 99}, ReceiverConfig{
		NAKDelay:    20 * time.Millisecond, // recovery can't finish before the crash below
		NAKRetry:    5 * time.Millisecond,
		NAKRetryMax: 30 * time.Millisecond,
		MaxNAKs:     3,
		Seed:        1,
		// Inject loss at the relay itself (every 5th forwarded data
		// packet) so the drops are upstream of the buffer stash and
		// perfectly predictable.
	}, func(c *RelayConfig) { c.DropEveryN = 5 })

	rig.sendTracked("p1", 50)
	// Let the relay drain its socket before the crash kills it — packets
	// still in the kernel buffer would be lost unsequenced, which no NAK
	// can ever see.
	waitFor(t, 5*time.Second, func() bool { return rig.relay.Stats().Upgraded == 50 }, "relay ingest")
	rig.relay.Crash() // gaps detected, first NAK still pending
	if err := rig.relay.Restart(); err != nil {
		t.Fatal(err)
	}
	// 50 sends, every 5th dropped: those payloads can never be recovered
	// from the cold buffer. Flush traffic keeps being dropped too, so
	// gaps keep forming while we drive; only require the deliverable 40,
	// then stop flushing and let the write-off machinery drain.
	waitFor(t, 10*time.Second, func() bool { return rig.deliveredTracked() >= 40 }, "deliverable payloads")
	waitFor(t, 10*time.Second, func() bool {
		return rig.recv.OutstandingGaps() == 0 && rig.recv.Stats().PermanentLoss > 0
	}, "gaps to be written off")

	st := rig.recv.Stats()
	rig.mu.Lock()
	nGaps := uint64(len(rig.gaps))
	rig.mu.Unlock()
	if nGaps != st.PermanentLoss {
		t.Fatalf("OnGap reported %d holes, stats say %d", nGaps, st.PermanentLoss)
	}
	if got := rig.plan.Counters().Get(telemetry.CounterPermanentLoss); got != st.PermanentLoss {
		t.Fatalf("permanent-loss counter %d != stats %d", got, st.PermanentLoss)
	}
	if rig.relay.Stats().Misses == 0 {
		t.Fatalf("cold buffer never missed a NAK: %+v", rig.relay.Stats())
	}
}

// TestLiveChaosReorderAndDuplication wraps the relay egress with reorder
// and duplication faults: every payload still arrives exactly once at the
// application, with duplicates absorbed by seq tracking.
func TestLiveChaosReorderAndDuplication(t *testing.T) {
	rig := newChaosRig(t,
		faults.Spec{Seed: 17, ReorderProb: 0.15, ReorderDelay: 3 * time.Millisecond, DupProb: 0.10},
		ReceiverConfig{
			NAKDelay:    8 * time.Millisecond, // > reorder delay: usually absorbed silently
			NAKRetry:    10 * time.Millisecond,
			NAKRetryMax: 50 * time.Millisecond,
			MaxNAKs:     20,
			Seed:        1,
		})
	rig.sendTracked("p1", 100)
	rig.driveUntilDelivered(100, 10*time.Second)

	rig.mu.Lock()
	for p, n := range rig.payloads {
		if n != 1 {
			t.Errorf("payload %q delivered %d times", p, n)
		}
	}
	rig.mu.Unlock()
	st := rig.recv.Stats()
	if st.PermanentLoss != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Duplicates == 0 {
		t.Fatalf("no duplicates reached the receiver: %+v", st)
	}
	c := rig.plan.Counters()
	if c.Get(faults.CounterReorder) == 0 || c.Get(faults.CounterDuplicate) == 0 {
		t.Fatalf("injection counters empty: %s", c)
	}
}

// TestLiveSenderReconnectsAfterRelayDeath exercises the flush's
// redial-and-resend at a ring of one and a ring of eight: a crashed relay
// surfaces as ECONNREFUSED (via ICMP) on the connected UDP socket, the
// flush redials and rewrites the unsent tail, and every tracked message
// of both phases is delivered once the relay restarts.
func TestLiveSenderReconnectsAfterRelayDeath(t *testing.T) {
	for _, depth := range []int{1, 8} {
		t.Run(fmt.Sprintf("ring=%d", depth), func(t *testing.T) {
			rig := newChaosRig(t, faults.Spec{Seed: 1}, ReceiverConfig{Seed: 1})
			// Swap the rig's sender for one of this depth that records
			// its reconnects.
			rec := metrics.NewFlightRecorder(64)
			rig.snd.Close()
			snd, err := NewSenderWithConfig(SenderConfig{Dst: rig.relay.Addr(), Experiment: 777, BatchSize: depth, Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			rig.snd = snd

			rig.sendTracked("p1", 5)
			rig.driveUntilDelivered(5, 5*time.Second)

			rig.relay.Crash()
			// Probe the dead relay until a write fails. The first write
			// lands in the void; the ICMP port-unreachable it provokes
			// fails a later one, which makes the flush redial and resend
			// (so no error escapes Send). One more probe then lands in the
			// void from the socket the sender holds now, so the first
			// write after the restart fails too: phase 2 rides a flush
			// that has to redial and resend it.
			deadline := time.Now().Add(5 * time.Second)
			for snd.Stats().SendErrors == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("no write failed against the dead relay: %+v", snd.Stats())
				}
				rig.flush()
				time.Sleep(time.Millisecond)
			}
			sent := snd.Stats().Sent
			rig.flush()
			for snd.Stats().Sent == sent {
				if time.Now().After(deadline) {
					t.Fatalf("the last probe was never written: %+v", snd.Stats())
				}
				time.Sleep(time.Millisecond)
			}
			if err := rig.relay.Restart(); err != nil {
				t.Fatal(err)
			}
			rig.sendTracked("p2", 5)
			rig.driveUntilDelivered(10, 5*time.Second)

			st := snd.Stats()
			if st.SendErrors < 2 || st.Reconnects < st.SendErrors {
				t.Fatalf("want a failed write before and after the restart, each answered by a redial: %+v", st)
			}
			var events int
			for _, ev := range rec.Snapshot() {
				if ev.Kind != metrics.EvReconnect {
					continue
				}
				events++
				if ev.Aux == 0 {
					t.Fatalf("reconnect event carries no failed writes: %+v", ev)
				}
			}
			if events == 0 {
				t.Fatalf("no reconnect event recorded; stats %+v", st)
			}
			t.Logf("sender stats after relay death: %+v, %d reconnect events", st, events)
		})
	}
}

// TestLiveRestartErrors pins the Restart contract: only a crashed, open
// relay can restart.
func TestLiveRestartErrors(t *testing.T) {
	recv, err := NewReceiver(ReceiverConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	relay, err := NewRelay(RelayConfig{Listen: "127.0.0.1:0", Forward: recv.Addr(), MaxAge: time.Second, CapacityBytes: testCapacity})
	if err != nil {
		t.Fatal(err)
	}
	if err := relay.Restart(); err == nil {
		t.Fatal("Restart on a running relay should fail")
	}
	relay.Crash()
	relay.Crash() // idempotent
	if got := relay.Stats().Crashes; got != 1 {
		t.Fatalf("double crash counted: %d", got)
	}
	if err := relay.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
	if err := relay.Restart(); err == nil {
		t.Fatal("Restart on a closed relay should fail")
	}
}
