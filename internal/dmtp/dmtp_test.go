package dmtp

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

// --- ToRanges (the single shared NAK range builder) ---

func TestToRangesQuick(t *testing.T) {
	f := func(seqs []uint64) bool {
		in := append([]uint64(nil), seqs...)
		slices.Sort(in) // ToRanges takes ascending input
		ranges := ToRanges(in)
		// Every input seq must be covered.
		for _, s := range seqs {
			found := false
			for _, r := range ranges {
				if s >= r.From && s <= r.To {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// Ranges must be ascending and non-adjacent.
		for i := 1; i < len(ranges); i++ {
			if ranges[i].From <= ranges[i-1].To+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestToRangesCompresses(t *testing.T) {
	got := ToRanges([]uint64{1, 2, 3, 5, 9})
	want := []wire.SeqRange{{From: 1, To: 3}, {From: 5, To: 5}, {From: 9, To: 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if ToRanges(nil) != nil {
		t.Fatal("empty input should produce nil")
	}
	// Duplicates merge.
	got = ToRanges([]uint64{4, 4, 4, 5})
	want = []wire.SeqRange{{From: 4, To: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// --- FakeClock ---

func TestFakeClockFiresInOrder(t *testing.T) {
	fc := NewFakeClock(0)
	var fired []int
	fc.Schedule(30, func() { fired = append(fired, 3) })
	fc.Schedule(10, func() { fired = append(fired, 1) })
	fc.Schedule(10, func() { fired = append(fired, 2) }) // same time: schedule order
	fc.Advance(20 * time.Nanosecond)
	if !reflect.DeepEqual(fired, []int{1, 2}) {
		t.Fatalf("fired %v", fired)
	}
	if fc.Now() != 20 {
		t.Fatalf("now %d", fc.Now())
	}
	fc.Advance(20 * time.Nanosecond)
	if !reflect.DeepEqual(fired, []int{1, 2, 3}) {
		t.Fatalf("fired %v", fired)
	}
}

func TestFakeClockReentrantSchedule(t *testing.T) {
	fc := NewFakeClock(0)
	var fired []int
	fc.Schedule(10, func() {
		fired = append(fired, 1)
		// Re-entrant schedule inside a fire, still due this advance.
		fc.Schedule(15, func() { fired = append(fired, 2) })
	})
	fc.AdvanceTo(20)
	if !reflect.DeepEqual(fired, []int{1, 2}) {
		t.Fatalf("fired %v", fired)
	}
}

func TestFakeClockStopAndNextAt(t *testing.T) {
	fc := NewFakeClock(100)
	fired := 0
	tm := fc.Schedule(200, func() { fired++ })
	fc.Schedule(300, func() { fired++ })
	if at, ok := fc.NextAt(); !ok || at != 200 {
		t.Fatalf("NextAt %d %v", at, ok)
	}
	tm.Stop()
	if at, ok := fc.NextAt(); !ok || at != 300 {
		t.Fatalf("NextAt after stop %d %v", at, ok)
	}
	fc.AdvanceTo(400)
	if fired != 1 {
		t.Fatalf("fired %d", fired)
	}
	if _, ok := fc.NextAt(); ok {
		t.Fatal("timers left")
	}
	// Past schedules clamp to now and fire on the next advance.
	fc.Schedule(0, func() { fired++ })
	fc.Advance(0)
	if fired != 2 {
		t.Fatalf("fired %d", fired)
	}
}

// --- retryBackoff (the single shared NAK backoff) ---

func TestRetryBackoffBoundsAndClamp(t *testing.T) {
	e := NewReceiverEngine(NewFakeClock(0), nopDatapath{}, ReceiverConfig{
		NAKRetry:    5 * time.Millisecond,
		NAKRetryMax: 500 * time.Millisecond,
		Seed:        42,
	})
	for n := 1; n <= 200; n++ {
		b := e.cfg.NAKRetry << (n - 1)
		if n-1 > 20 || b <= 0 || b > e.cfg.NAKRetryMax {
			b = e.cfg.NAKRetryMax
		}
		for i := 0; i < 10; i++ {
			d := e.retryBackoff(n)
			if d < b/2 || d >= b/2+b {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", n, d, b/2, b/2+b)
			}
		}
	}
}

func TestRetryBackoffSeeded(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		e := NewReceiverEngine(NewFakeClock(0), nopDatapath{}, ReceiverConfig{
			NAKRetry: time.Millisecond, NAKRetryMax: 100 * time.Millisecond, Seed: seed,
		})
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = e.retryBackoff(i + 1)
		}
		return out
	}
	if !reflect.DeepEqual(mk(7), mk(7)) {
		t.Fatal("same seed must give same jitter")
	}
	if reflect.DeepEqual(mk(7), mk(8)) {
		t.Fatal("different seeds should differ")
	}
}

// --- ReceiverEngine ---

type nopDatapath struct{}

func (nopDatapath) SendControl(wire.Addr, []byte) {}
func (nopDatapath) SendData(wire.Addr, []byte)    {}

type recDatapath struct {
	control [][]byte
	data    [][]byte
	ctrlDst []wire.Addr
	dataDst []wire.Addr
}

func (d *recDatapath) SendControl(dst wire.Addr, pkt []byte) {
	d.ctrlDst = append(d.ctrlDst, dst)
	d.control = append(d.control, append([]byte(nil), pkt...))
}

func (d *recDatapath) SendData(dst wire.Addr, pkt []byte) {
	d.dataDst = append(d.dataDst, dst)
	d.data = append(d.data, append([]byte(nil), pkt...))
}

func seqPacket(t testing.TB, seq uint64, buffer wire.Addr, payload string) wire.View {
	t.Helper()
	h := wire.Header{
		ConfigID:   1,
		Features:   wire.FeatSequenced | wire.FeatReliable,
		Experiment: wire.NewExperimentID(7, 0),
	}
	h.Seq.Seq = seq
	h.Retransmit.Buffer = buffer
	enc, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire.View(append(enc, payload...))
}

func TestReceiverEngineGapNAKAndRecovery(t *testing.T) {
	fc := NewFakeClock(0)
	dp := &recDatapath{}
	buffer := wire.AddrFrom(10, 0, 0, 1, 100)
	var delivered []uint64
	var nakRanges [][]wire.SeqRange
	eng := NewReceiverEngine(fc, dp, ReceiverConfig{
		NAKDelay:    time.Millisecond,
		NAKRetry:    5 * time.Millisecond,
		NAKRetryMax: 500 * time.Millisecond,
		MaxNAKs:     5,
		Deliver:     func(m Message) { delivered = append(delivered, m.Seq) },
		OnNAK: func(_ wire.ExperimentID, rs []wire.SeqRange) {
			nakRanges = append(nakRanges, append([]wire.SeqRange(nil), rs...))
		},
	})
	eng.SetSelf(wire.AddrFrom(10, 0, 0, 2, 200))

	eng.Ingest(seqPacket(t, 1, buffer, "a"))
	eng.Ingest(seqPacket(t, 4, buffer, "d")) // gaps at 2, 3
	if got := eng.OutstandingGaps(); got != 2 {
		t.Fatalf("outstanding gaps %d", got)
	}
	fc.Advance(2 * time.Millisecond) // NAKDelay elapses
	if len(dp.control) != 1 {
		t.Fatalf("control sends %d", len(dp.control))
	}
	if !reflect.DeepEqual(nakRanges, [][]wire.SeqRange{{{From: 2, To: 3}}}) {
		t.Fatalf("nak ranges %v", nakRanges)
	}
	if dp.ctrlDst[0] != buffer {
		t.Fatalf("NAK went to %v", dp.ctrlDst[0])
	}

	// Retransmission arrives: counted as recovered, floor advances.
	eng.Ingest(seqPacket(t, 2, buffer, "b"))
	eng.Ingest(seqPacket(t, 3, buffer, "c"))
	st := eng.Stats()
	if st.Recovered != 2 || st.GapsSeen != 2 || st.NAKsSent != 1 {
		t.Fatalf("stats %+v", st)
	}
	if eng.OutstandingGaps() != 0 {
		t.Fatalf("gaps left: %d", eng.OutstandingGaps())
	}
	if !reflect.DeepEqual(delivered, []uint64{1, 4, 2, 3}) {
		t.Fatalf("delivered %v", delivered)
	}
	// Duplicate of an already-received seq is dropped.
	eng.Ingest(seqPacket(t, 3, buffer, "c"))
	if st := eng.Stats(); st.Duplicates != 1 || st.Delivered != 4 {
		t.Fatalf("dup stats %+v", st)
	}
}

func TestReceiverEngineWriteOffAfterMaxNAKs(t *testing.T) {
	fc := NewFakeClock(0)
	dp := &recDatapath{}
	buffer := wire.AddrFrom(10, 0, 0, 1, 100)
	var lost []uint64
	eng := NewReceiverEngine(fc, dp, ReceiverConfig{
		NAKDelay:    time.Millisecond,
		NAKRetry:    2 * time.Millisecond,
		NAKRetryMax: 50 * time.Millisecond,
		MaxNAKs:     3,
		OnGap:       func(_ wire.ExperimentID, seq uint64) { lost = append(lost, seq) },
	})
	eng.SetSelf(wire.AddrFrom(10, 0, 0, 2, 200))
	eng.Ingest(seqPacket(t, 1, buffer, "a"))
	eng.Ingest(seqPacket(t, 3, buffer, "c")) // gap at 2, never recovered

	// Drive the clock until the engine gives up.
	for i := 0; i < 100; i++ {
		at, ok := fc.NextAt()
		if !ok {
			break
		}
		fc.AdvanceTo(at)
	}
	st := eng.Stats()
	if st.Lost != 1 || st.NAKsSent != 3 {
		t.Fatalf("stats %+v", st)
	}
	if !reflect.DeepEqual(lost, []uint64{2}) {
		t.Fatalf("lost %v", lost)
	}
	if eng.OutstandingGaps() != 0 {
		t.Fatal("write-off should clear the gap")
	}
}

func TestReceiverEngineOrderedDelivery(t *testing.T) {
	fc := NewFakeClock(0)
	buffer := wire.AddrFrom(10, 0, 0, 1, 100)
	var delivered []uint64
	eng := NewReceiverEngine(fc, &recDatapath{}, ReceiverConfig{
		NAKDelay: time.Millisecond, NAKRetry: 2 * time.Millisecond,
		NAKRetryMax: 50 * time.Millisecond, MaxNAKs: 5, Ordered: true,
		Deliver: func(m Message) { delivered = append(delivered, m.Seq) },
	})
	eng.SetSelf(wire.AddrFrom(10, 0, 0, 2, 200))
	eng.Ingest(seqPacket(t, 2, buffer, "b")) // held: 1 missing
	eng.Ingest(seqPacket(t, 3, buffer, "c"))
	if len(delivered) != 0 {
		t.Fatalf("premature delivery %v", delivered)
	}
	eng.Ingest(seqPacket(t, 1, buffer, "a"))
	if !reflect.DeepEqual(delivered, []uint64{1, 2, 3}) {
		t.Fatalf("delivered %v", delivered)
	}
}

func TestGapFloorBiasBreaksDetection(t *testing.T) {
	// The conformance self-test hook: a biased floor misses the first gap
	// after the floor. This test pins the knob's effect.
	defer func() { GapFloorBias = 0 }()
	GapFloorBias = 1
	fc := NewFakeClock(0)
	eng := NewReceiverEngine(fc, &recDatapath{}, ReceiverConfig{
		NAKDelay: time.Millisecond, NAKRetry: 2 * time.Millisecond,
		NAKRetryMax: 50 * time.Millisecond, MaxNAKs: 5,
	})
	eng.Ingest(seqPacket(t, 2, wire.Addr{}, "b")) // seq 1 missing, floor 0
	if got := eng.OutstandingGaps(); got != 0 {
		t.Fatalf("biased engine still detected %d gaps", got)
	}
	GapFloorBias = 0
	eng2 := NewReceiverEngine(fc, &recDatapath{}, ReceiverConfig{
		NAKDelay: time.Millisecond, NAKRetry: 2 * time.Millisecond,
		NAKRetryMax: 50 * time.Millisecond, MaxNAKs: 5,
	})
	eng2.Ingest(seqPacket(t, 2, wire.Addr{}, "b"))
	if got := eng2.OutstandingGaps(); got != 1 {
		t.Fatalf("unbiased engine saw %d gaps", got)
	}
}

// --- BufferEngine ---

func TestBufferEngineStashServeTrim(t *testing.T) {
	dp := &recDatapath{}
	released := 0
	eng := NewBufferEngine(dp, BufferConfig{
		CapacityBytes: 1 << 20,
		Release:       func([]byte) { released++ },
	})
	exp := wire.NewExperimentID(7, 0)
	if eng.NextSeq(exp) != 1 || eng.NextSeq(exp) != 2 {
		t.Fatal("NextSeq not sequential")
	}
	eng.Stash(exp, 1, []byte("one"))
	eng.Stash(exp, 2, []byte("two!"))
	if eng.BufferedBytes() != 7 {
		t.Fatalf("bytes %d", eng.BufferedBytes())
	}

	req := wire.AddrFrom(10, 0, 0, 9, 900)
	eng.ServeNAK(&wire.NAK{Experiment: exp, Requester: req,
		Ranges: []wire.SeqRange{{From: 1, To: 3}}})
	st := eng.Stats()
	if st.Retransmits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if len(dp.data) != 2 || dp.dataDst[0] != req {
		t.Fatalf("data sends %d", len(dp.data))
	}

	eng.Trim(exp, 1)
	if st := eng.Stats(); st.Trimmed != 1 || released != 1 {
		t.Fatalf("trim stats %+v released %d", st, released)
	}
	if eng.BufferedBytes() != 4 {
		t.Fatalf("bytes after trim %d", eng.BufferedBytes())
	}

	eng.Crash()
	if !eng.Down() || released != 2 || eng.BufferedBytes() != 0 {
		t.Fatalf("crash: down=%v released=%d bytes=%d", eng.Down(), released, eng.BufferedBytes())
	}
	eng.Restart()
	if eng.Down() {
		t.Fatal("restart left engine down")
	}
	// Sequence counters survive the crash.
	if eng.NextSeq(exp) != 3 {
		t.Fatal("seq counter lost in crash")
	}
}

func TestBufferEngineEvictsFIFO(t *testing.T) {
	var releasedN int
	eng := NewBufferEngine(nopDatapath{}, BufferConfig{
		CapacityBytes: 8,
		Release:       func([]byte) { releasedN++ },
	})
	exp := wire.NewExperimentID(1, 0)
	eng.Stash(exp, 1, []byte("aaaa"))
	eng.Stash(exp, 2, []byte("bbbb"))
	eng.Stash(exp, 3, []byte("cccc")) // evicts seq 1
	st := eng.Stats()
	if st.Evicted != 1 || releasedN != 1 {
		t.Fatalf("evicted %d released %d", st.Evicted, releasedN)
	}
	// Oldest gone, newer two retransmittable.
	eng.ServeNAK(&wire.NAK{Experiment: exp, Requester: wire.AddrFrom(1, 1, 1, 1, 1),
		Ranges: []wire.SeqRange{{From: 1, To: 1}, {From: 2, To: 3}}})
	if st := eng.Stats(); st.Misses != 1 || st.Retransmits != 2 {
		t.Fatalf("post-evict stats %+v", st)
	}
}

// TestBufferEngineServeNAKBoundsWideRanges: a NAK is outside input, and one
// datagram can name the whole sequence space. Service must look up a bounded
// number of sequence numbers, retransmit what it holds among them once, and
// account every other requested number as a miss without visiting it.
func TestBufferEngineServeNAKBoundsWideRanges(t *testing.T) {
	const max = math.MaxUint64
	for _, tc := range []struct {
		name   string
		ranges []wire.SeqRange
		rtx    uint64
		misses uint64
	}{
		{"whole space", []wire.SeqRange{{From: 1, To: max}}, 3, max - 3},
		{"inverted", []wire.SeqRange{{From: 5, To: 4}}, 0, 0},
		{"overlapping", []wire.SeqRange{{From: 1, To: 1 << 40}, {From: 2, To: 1 << 41}}, 3, 1<<40 - 3 + 1<<41 - 1},
		{"budget spent before the stash is reached", []wire.SeqRange{{From: 4, To: 1 << 40}, {From: 1, To: 3}}, 0, 1<<40 - 3 + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dp := &recDatapath{}
			eng := NewBufferEngine(dp, BufferConfig{})
			exp := wire.NewExperimentID(7, 0)
			for seq := uint64(1); seq <= 3; seq++ {
				eng.Stash(exp, seq, []byte("pkt"))
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				eng.ServeNAK(&wire.NAK{Experiment: exp, Requester: wire.AddrFrom(10, 0, 0, 9, 900), Ranges: tc.ranges})
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("ServeNAK still walking after 5s")
			}
			if st := eng.Stats(); st.Retransmits != tc.rtx || st.Misses != tc.misses || st.NAKs != 1 {
				t.Fatalf("stats %+v, want %d retransmits and %d misses", st, tc.rtx, tc.misses)
			}
		})
	}
}
