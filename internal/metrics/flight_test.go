package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, DefaultFlightRecorderSize},
		{-1, DefaultFlightRecorderSize},
		{1, 1},
		{3, 4},
		{4, 4},
		{5, 8},
		{4096, 4096},
	} {
		if got := NewFlightRecorder(tc.ask).Cap(); got != tc.want {
			t.Errorf("NewFlightRecorder(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record(EvCrash, 0, 0, 0) // must not panic
	r.RecordAt(1, EvCrash, 0, 0, 0)
	if r.Total() != 0 || r.Cap() != 0 || r.Snapshot() != nil {
		t.Fatal("nil recorder should report zeros and a nil snapshot")
	}
}

func TestFlightRecorderOrdering(t *testing.T) {
	r := NewFlightRecorder(16)
	for i := 1; i <= 5; i++ {
		r.RecordAt(int64(i), EvNAKSent, 7, uint64(i), 0)
	}
	evs := r.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("snapshot has %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.At != int64(i+1) {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
		if ev.Kind != EvNAKSent || ev.Exp != 7 {
			t.Fatalf("event %d fields wrong: %+v", i, ev)
		}
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(8)
	for i := 1; i <= 20; i++ {
		r.RecordAt(int64(i), EvGapDetected, 1, uint64(i), 0)
	}
	if r.Total() != 20 {
		t.Fatalf("Total = %d, want 20", r.Total())
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot has %d events, want the last 8", len(evs))
	}
	for i, ev := range evs {
		want := uint64(13 + i) // 13..20
		if ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first after wrap)", i, ev.Seq, want)
		}
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, ev := range r.Snapshot() {
					if ev.Kind == 0 {
						t.Error("snapshot returned a zero-kind event")
						return
					}
				}
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.RecordAt(int64(i), EvRecovered, uint64(g), uint64(i), 0)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if r.Total() != 4*5000 {
		t.Fatalf("Total = %d, want %d", r.Total(), 4*5000)
	}
}

func TestEventKindNames(t *testing.T) {
	kinds := []EventKind{
		EvGapDetected, EvNAKSent, EvNAKServed, EvNAKMiss, EvRecovered,
		EvWriteOff, EvReshape, EvEvict, EvTrim, EvCrash, EvRestart,
		EvBackPressure, EvReconnect, EvInjectedDrop,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind-") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if got := EventKind(200).String(); got != "kind-200" {
		t.Errorf("unknown kind renders as %q", got)
	}
}

func TestEventStringWallVsVirtual(t *testing.T) {
	virtual := Event{At: 1_500_000_000, Kind: EvTrim, Exp: 3, Seq: 9, Aux: 2}
	if s := virtual.String(); !strings.Contains(s, "1.5s") || !strings.Contains(s, "trim") {
		t.Errorf("virtual-time event rendered as %q", s)
	}
	wall := Event{At: 1_700_000_000_000_000_000, Kind: EvCrash} // 2023 in Unix ns
	if s := wall.String(); !strings.Contains(s, ":") || !strings.Contains(s, "crash") {
		t.Errorf("wall-clock event rendered as %q", s)
	}
}

// TestFlightRecorderDropsOnClaimedSlot pins the multi-writer rule: a
// writer that laps onto a slot another writer still holds (odd version)
// drops its event and counts it, instead of interleaving fields with the
// holder's — after which the holder's event is intact.
func TestFlightRecorderDropsOnClaimedSlot(t *testing.T) {
	rec := NewFlightRecorder(1)
	rec.RecordAt(1, EvGapDetected, 7, 7, 7)
	s := &rec.slots[0]
	s.ver.Add(1) // a stalled writer holds the slot
	rec.RecordAt(2, EvWriteOff, 9, 9, 9)
	if rec.Dropped() != 1 || rec.Total() != 2 {
		t.Fatalf("dropped %d total %d, want 1 and 2", rec.Dropped(), rec.Total())
	}
	if got := rec.Snapshot(); len(got) != 0 {
		t.Fatalf("snapshot returned a slot mid-write: %+v", got)
	}
	s.ver.Add(1) // the stalled writer finishes
	got := rec.Snapshot()
	if len(got) != 1 || got[0].Kind != EvGapDetected || got[0].Seq != 7 {
		t.Fatalf("holder's event damaged by the dropped write: %+v", got)
	}
}
