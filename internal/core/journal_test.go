package core

import (
	"testing"
	"time"

	"repro/internal/daq"
	"repro/internal/sim"
)

// TestEndToEndJournaledCrashZeroLoss is the simulator-substrate durable
// pilot: the Fig. 4 path with 5% WAN loss, a DTN1 crash/restart in the
// middle of the stream, and a write-ahead journal under the stash. The
// cold-crash variant of this scenario writes off every pre-crash packet
// still awaiting recovery; with the journal, Restart replays the stash
// and the tally must be exact — zero lost, all 200 delivered.
func TestEndToEndJournaledCrashZeroLoss(t *testing.T) {
	jdir := t.TempDir()
	p := newPilotPath(t, 3, 0.05, ReceiverConfig{
		NAKDelay:    200 * time.Microsecond,
		NAKRetry:    2 * time.Millisecond,
		NAKRetryMax: 20 * time.Millisecond,
		MaxNAKs:     50,
	}, func(cfg *BufferConfig) {
		cfg.JournalDir = jdir
	})
	defer p.dtn1.CloseJournal()

	src := daq.NewLArTPC(daq.DefaultLArTPC(0, 200, 7))
	p.sender.Stream(src)
	// Crash mid-stream: the stash still holds unacknowledged packets and
	// WAN loss guarantees some of them have recovery in flight.
	p.nw.Loop().At(sim.Time(5*time.Millisecond), func() {
		p.dtn1.Crash()
		p.dtn1.Restart()
	})
	p.nw.Loop().Run()

	st := p.receiver.Stats
	if st.Lost != 0 {
		t.Fatalf("journaled crash still lost packets: %+v", st)
	}
	if len(p.messages) != 200 {
		t.Fatalf("delivered %d/200", len(p.messages))
	}
	if st.Recovered == 0 {
		t.Fatalf("no recoveries under 5%% WAN loss: %+v", st)
	}
	if p.dtn1.Stats().BufferStats.Crashes != 1 {
		t.Fatalf("crash not recorded: %+v", p.dtn1.Stats().BufferStats)
	}
	js := p.dtn1.JournalStats()
	if js.Replayed == 0 {
		t.Fatalf("restart replayed nothing: %+v", js)
	}
	// The replay balance the campaign oracle enforces, checked here too:
	// every recovery must account for exactly the appends minus removals.
	for i, rec := range p.dtn1.JournalRecoveries() {
		if rec.Appended-rec.Tombstoned != rec.Replayed {
			t.Fatalf("shard %d replay balance broken: appended %d − tombstoned %d != replayed %d",
				i, rec.Appended, rec.Tombstoned, rec.Replayed)
		}
	}
}

// TestEndToEndJournalDisabledMatchesSeed pins the nil-journal contract:
// with no JournalDir the durable path is entirely absent — no journal
// state, no recoveries, and Crash/Restart keep the pre-journal cold-
// buffer semantics (pre-crash losses written off, stream continues).
func TestEndToEndJournalDisabledMatchesSeed(t *testing.T) {
	p := newPilotPath(t, 3, 0.05, ReceiverConfig{
		NAKDelay:    200 * time.Microsecond,
		NAKRetry:    2 * time.Millisecond,
		NAKRetryMax: 20 * time.Millisecond,
		MaxNAKs:     10,
	}, nil)
	src := daq.NewLArTPC(daq.DefaultLArTPC(0, 200, 7))
	p.sender.Stream(src)
	p.nw.Loop().At(sim.Time(5*time.Millisecond), func() {
		p.dtn1.Crash()
		p.dtn1.Restart()
	})
	p.nw.Loop().Run()

	if recs := p.dtn1.JournalRecoveries(); recs != nil {
		t.Fatalf("nil-journal node reports recoveries: %v", recs)
	}
	if js := p.dtn1.JournalStats(); js.Appends != 0 || js.Replayed != 0 {
		t.Fatalf("nil-journal node counted journal traffic: %+v", js)
	}
	if err := p.dtn1.CloseJournal(); err != nil {
		t.Fatalf("CloseJournal on nil journal: %v", err)
	}
	// Delivery still completes around whatever the cold crash stranded.
	if got := len(p.messages) + int(p.receiver.Stats.Lost); got != 200 {
		t.Fatalf("delivered %d + lost %d != 200", len(p.messages), p.receiver.Stats.Lost)
	}
}
