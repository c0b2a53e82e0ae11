package metrics

import (
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestRegistryScrapeVsRegisterRace exercises every scrape surface
// (Snapshot, WriteText, WriteProm) concurrently with instrument creation
// and set registration. Run under -race this proves a monitor
// scraping a daemon mid-startup (instruments still being registered)
// never observes torn registry state.
func TestRegistryScrapeVsRegisterRace(t *testing.T) {
	reg := NewRegistry()
	const writers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				reg.Counter(fmt.Sprintf("race.counter.%d.%d", w, i%17)).Inc()
				reg.Gauge(fmt.Sprintf("race.gauge.%d.%d", w, i%13)).Set(int64(i))
				reg.Histogram(fmt.Sprintf("race.hist.%d.%d", w, i%7)).Observe(int64(i))
				if i%29 == 0 {
					reg.RegisterSet([]string{fmt.Sprintf("race.func.%d.%d", w, i)}, func(dst []int64) { dst[0] = int64(i) })
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				reg.Snapshot()
				reg.WriteText(io.Discard)
				if err := reg.WriteProm(io.Discard); err != nil {
					t.Errorf("WriteProm: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFlightRecorderSnapshotDuringWraparound hammers a deliberately tiny
// ring so every Record overwrites a live slot while snapshots run, and
// checks the seqlock contract: a returned event is never torn. Writers
// maintain exp == seq == aux, so any returned event with mismatched
// fields was read mid-write.
func TestFlightRecorderSnapshotDuringWraparound(t *testing.T) {
	rec := NewFlightRecorder(8)
	const writers, events = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				v := uint64(w*events + i)
				rec.RecordAt(int64(i), EvGapDetected, v, v, v)
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				for _, ev := range rec.Snapshot() {
					if ev.Exp != ev.Seq || ev.Seq != ev.Aux {
						t.Errorf("torn event escaped the seqlock: %+v", ev)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// Quiesced: the ring must now return exactly Cap consistent events.
	got := rec.Snapshot()
	if len(got) != rec.Cap() {
		t.Fatalf("quiesced snapshot has %d events, want %d", len(got), rec.Cap())
	}
	for _, ev := range got {
		if ev.Exp != ev.Seq || ev.Seq != ev.Aux {
			t.Fatalf("torn event after quiesce: %+v", ev)
		}
	}
}
