package live

import (
	"net"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/wire"
)

// TestLiveJournaledRelayCrashRecoversWarm is the durable counterpart of
// TestLiveChaosCrashDuringRecoveryDegradesGracefully: the same crash
// lands while NAK recovery is still in flight, but the relay runs a
// write-ahead journal, so Restart replays the stash and every pending
// NAK is served from the warm buffer — zero write-offs where the cold
// relay had to report permanent loss.
func TestLiveJournaledRelayCrashRecoversWarm(t *testing.T) {
	jdir := t.TempDir()
	rig := newChaosRig(t, faults.Spec{Seed: 99}, ReceiverConfig{
		NAKDelay:    20 * time.Millisecond, // recovery can't finish before the crash below
		NAKRetry:    5 * time.Millisecond,
		NAKRetryMax: 30 * time.Millisecond,
		MaxNAKs:     30,
		Seed:        1,
	}, func(c *RelayConfig) {
		// Drops injected at the relay itself, downstream of the stash: the
		// dropped packets are journalled, so post-restart NAKs can recover
		// every one of them.
		c.DropEveryN = 5
		c.JournalDir = jdir
		c.Shards = 2
	})

	rig.sendTracked("p1", 50)
	waitFor(t, 5*time.Second, func() bool { return rig.relay.Stats().Upgraded == 50 }, "relay ingest")
	rig.relay.Crash() // gaps detected, first NAK still pending
	if err := rig.relay.Restart(); err != nil {
		t.Fatal(err)
	}
	js := rig.relay.JournalStats()
	if js.Replayed == 0 {
		t.Fatalf("restart replayed nothing: %+v", js)
	}
	if rig.relay.BufferedBytes() == 0 {
		t.Fatal("buffer still cold after journal replay")
	}
	// Unlike the cold-buffer scenario, all 50 payloads are deliverable:
	// injected drops keep hitting flush traffic, but every tracked payload
	// either got through or sits in the replayed stash awaiting its NAK.
	rig.driveUntilDelivered(50, 10*time.Second)

	st := rig.recv.Stats()
	rig.mu.Lock()
	nGaps := len(rig.gaps)
	rig.mu.Unlock()
	if st.PermanentLoss != 0 || nGaps != 0 {
		t.Fatalf("write-offs despite journal replay: %+v gaps=%d", st, nGaps)
	}
	if st.Recovered == 0 {
		t.Fatalf("nothing recovered — injected drops never exercised NAK service: %+v", st)
	}
	if rs := rig.relay.Stats(); rs.Misses != 0 {
		t.Fatalf("replayed buffer missed NAKs: %+v", rs)
	}
}

// TestLiveJournaledRelayCrashUnderBurstLoss crashes a journaled relay
// under 10% Gilbert burst loss on its egress WITHOUT settling first —
// the window where sequenced-but-undelivered packets would be stranded
// by a cold restart. The journal closes that window: those packets are
// in the replayed stash, so delivery still reaches 100%.
func TestLiveJournaledRelayCrashUnderBurstLoss(t *testing.T) {
	rig := newChaosRig(t,
		faults.Spec{Seed: 11, BurstLoss: 0.10, MeanBurstLen: 3},
		ReceiverConfig{
			NAKDelay:    time.Millisecond,
			NAKRetry:    5 * time.Millisecond,
			NAKRetryMax: 50 * time.Millisecond,
			MaxNAKs:     30,
			Seed:        1,
		}, func(c *RelayConfig) { c.JournalDir = t.TempDir() })

	rig.sendTracked("p1", 150)
	// Only wait for ingest (so no tracked payload is lost un-sequenced in
	// the socket buffer) — deliberately no settle: in-flight recovery is
	// exactly what the journal must survive.
	waitFor(t, 5*time.Second, func() bool { return rig.relay.Stats().Upgraded >= 150 }, "relay ingest")
	rig.relay.Crash()
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
		t.Fatalf("permanent losses despite journal: %+v gaps=%d", st, nGaps)
	}
	if js := rig.relay.JournalStats(); js.Replayed == 0 {
		t.Fatalf("journal replayed nothing across the crash: %+v", js)
	}
}

// TestLiveJournaledRelayProcessReopen exercises the startup recovery
// path — the one a real `dmtp-relay -journal-dir` restart takes: a relay
// stashes traffic, the process goes away entirely (Close), and a brand
// new relay opened on the same journal directory comes up with the
// stash already rebuilt and sequence numbering resumed past the old
// process's floor.
func TestLiveJournaledRelayProcessReopen(t *testing.T) {
	jdir := t.TempDir()
	// Forwarded data needs somewhere to land; a plain UDP socket that
	// never reads is fine (forwarding is fire-and-forget).
	sink, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	mk := func() *Relay {
		r, err := NewRelay(RelayConfig{
			Listen:        "127.0.0.1:0",
			CapacityBytes: testCapacity,
			Forward:       sink.LocalAddr().String(),
			MaxAge:        time.Second,
			Shards:        2,
			JournalDir:    jdir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	r1 := mk()
	snd, err := NewSenderWithConfig(SenderConfig{Dst: r1.Addr(), Experiment: 42})
	if err != nil {
		r1.Close()
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := snd.Send([]byte("payload"), 0); err != nil {
			t.Fatal(err)
		}
	}
	snd.Close()
	waitFor(t, 5*time.Second, func() bool { return r1.Stats().Upgraded == n }, "relay ingest")
	wantBytes := r1.BufferedBytes()
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := mk()
	defer r2.Close()
	recovered := 0
	for _, rec := range r2.JournalRecoveries() {
		recovered += len(rec.Entries)
	}
	if recovered != n {
		t.Fatalf("reopened relay recovered %d stash entries, want %d", recovered, n)
	}
	if got := r2.BufferedBytes(); got != wantBytes {
		t.Fatalf("reopened relay buffered %d bytes, want %d", got, wantBytes)
	}
	// The old process assigned sequences 1..n for experiment 42 slice 0;
	// the journal's floor must stop the new process from reusing them.
	exp := wire.NewExperimentID(42, 0)
	r2.engMu.Lock()
	next := r2.eng.Buffer().NextSeq(exp)
	r2.engMu.Unlock()
	if next != n+1 {
		t.Fatalf("sequence numbering regressed: next=%d want %d", next, n+1)
	}
}
