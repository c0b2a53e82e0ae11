package dmtp

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/wire"
)

// This file compares the engine's receive window — maxSeen plus one
// ascending gap list — with a model of the representation it replaced: a
// received set, a missing set, a stored floor walked forward, a full scan
// for the next deadline and a sort before ranging. The two are driven by
// the same seeded arrival schedules and must agree on everything
// observable.

// winEvent is one observable action: a delivery ('D', seq, recovered), a
// write-off ('L', seq) or one requested NAK range ('N', from, to).
type winEvent struct {
	at   int64
	kind byte
	a, b uint64
}

type refMissing struct {
	nextNAK int64
	naks    int
}

// refWindow is the map-based reference model. It has no clock of its own:
// the harness calls advanceTo, which fires its one timer when due.
type refWindow struct {
	cfg ReceiverConfig
	rng *rand.Rand

	maxSeen, floor uint64
	received       map[uint64]bool
	missing        map[uint64]*refMissing
	timerSet       bool
	timerAt        int64

	pending     map[uint64]bool // Ordered: seq → recovered
	nextDeliver uint64

	dups int
	log  []winEvent
}

func newRefWindow(cfg ReceiverConfig) *refWindow {
	if cfg.MaxNAKs == 0 {
		cfg.MaxNAKs = 5 // the engine's default
	}
	return &refWindow{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		received:    make(map[uint64]bool),
		missing:     make(map[uint64]*refMissing),
		pending:     make(map[uint64]bool),
		nextDeliver: 1,
	}
}

func (r *refWindow) ingest(seq uint64, now int64) {
	if seq <= r.floor || r.received[seq] {
		r.dups++
		return
	}
	r.received[seq] = true
	recovered := false
	if m, ok := r.missing[seq]; ok {
		delete(r.missing, seq)
		recovered = m.naks > 0
	}
	for s := r.maxSeen + 1; s < seq; s++ {
		r.missing[s] = &refMissing{nextNAK: now + int64(r.cfg.NAKDelay)}
	}
	r.maxSeen = max(r.maxSeen, seq)
	r.advanceFloor()
	r.armTimer(now)
	if r.cfg.Ordered {
		r.pending[seq] = recovered
		r.flushOrdered(now)
		return
	}
	r.log = append(r.log, deliveryEvent(now, seq, recovered))
}

func deliveryEvent(at int64, seq uint64, recovered bool) winEvent {
	ev := winEvent{at: at, kind: 'D', a: seq}
	if recovered {
		ev.b = 1
	}
	return ev
}

func (r *refWindow) flushOrdered(now int64) {
	for r.nextDeliver <= r.maxSeen {
		if rec, ok := r.pending[r.nextDeliver]; ok {
			delete(r.pending, r.nextDeliver)
			r.log = append(r.log, deliveryEvent(now, r.nextDeliver, rec))
		} else if r.nextDeliver > r.floor {
			return
		}
		r.nextDeliver++
	}
}

func (r *refWindow) advanceFloor() {
	for r.received[r.floor+1] {
		delete(r.received, r.floor+1)
		r.floor++
	}
}

func (r *refWindow) armTimer(now int64) {
	if len(r.missing) == 0 {
		r.timerSet = false
		return
	}
	earliest := int64(1<<63 - 1)
	for _, m := range r.missing {
		earliest = min(earliest, m.nextNAK)
	}
	if r.timerSet && r.timerAt <= earliest {
		return
	}
	r.timerSet, r.timerAt = true, max(earliest, now)
}

func (r *refWindow) advanceTo(t int64) {
	for r.timerSet && r.timerAt <= t {
		r.timerSet = false
		r.fire(r.timerAt)
	}
}

func (r *refWindow) fire(now int64) {
	var sweep []uint64
	for seq, m := range r.missing {
		if m.nextNAK <= now {
			sweep = append(sweep, seq)
		}
	}
	sort.Slice(sweep, func(i, j int) bool { return sweep[i] < sweep[j] })
	var due []uint64
	for _, seq := range sweep {
		m := r.missing[seq]
		if m.naks >= r.cfg.MaxNAKs {
			delete(r.missing, seq)
			r.received[seq] = true
			r.log = append(r.log, winEvent{at: now, kind: 'L', a: seq})
			continue
		}
		due = append(due, seq)
		m.naks++
		b := r.cfg.NAKRetry << min(m.naks-1, 20)
		if b <= 0 || b > r.cfg.NAKRetryMax {
			b = r.cfg.NAKRetryMax
		}
		m.nextNAK = now + int64(b/2) + r.rng.Int63n(int64(b))
	}
	r.advanceFloor()
	if r.cfg.Ordered {
		r.flushOrdered(now)
	}
	for i := 0; i < len(due); {
		j := i
		for j+1 < len(due) && due[j+1] == due[j]+1 {
			j++
		}
		r.log = append(r.log, winEvent{at: now, kind: 'N', a: due[i], b: due[j]})
		i = j + 1
	}
	r.armTimer(now)
}

// arrival is one packet reaching the receiver.
type arrival struct {
	at    int64
	order int // tie-break: push order
	seq   uint64
}

type arrivalQueue []arrival

func (q arrivalQueue) Len() int { return len(q) }
func (q arrivalQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].order < q[j].order
}
func (q arrivalQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *arrivalQueue) Push(x any)   { *q = append(*q, x.(arrival)) }
func (q *arrivalQueue) Pop() any {
	old := *q
	a := old[len(old)-1]
	*q = old[:len(old)-1]
	return a
}

// windowSchedule parameterises one seeded run: n packets 10 µs apart, each
// lost, delayed or duplicated with the given percentages; a loss takes the
// next burst packets with it.
type windowSchedule struct {
	seed                      int64
	n                         int
	loss, reorder, dup, burst int
	maxNAKs                   int
	ordered                   bool
	ackInterval               time.Duration
}

// The timing every schedule runs with.
const (
	winNAKDelay    = time.Millisecond
	winNAKRetry    = 2 * time.Millisecond
	winNAKRetryMax = 16 * time.Millisecond
)

// runWindowSchedule drives the engine and the reference with sc and fails
// at the first step on which they disagree. The harness plays the relay:
// each lost number ignores a drawn 0..MaxNAKs requests before a
// retransmission is sent (MaxNAKs: never, so it is written off), and the
// retransmission takes long enough that some arrive after further NAKs or
// after the write-off and count as duplicates.
func runWindowSchedule(t testing.TB, sc windowSchedule) {
	cfg := ReceiverConfig{
		NAKDelay:    winNAKDelay,
		NAKRetry:    winNAKRetry,
		NAKRetryMax: winNAKRetryMax,
		MaxNAKs:     sc.maxNAKs,
		Seed:        sc.seed,
		Ordered:     sc.ordered,
		AckInterval: sc.ackInterval,
	}
	ref := newRefWindow(cfg)
	fc := NewFakeClock(0)
	rng := rand.New(rand.NewSource(sc.seed ^ 0x5eed))
	var (
		got     []winEvent
		q       arrivalQueue
		pushed  int
		ignores = map[uint64]int{} // NAKs still to ignore per lost seq
	)
	push := func(at int64, seq uint64) {
		heap.Push(&q, arrival{at: at, order: pushed, seq: seq})
		pushed++
	}
	cfg.Deliver = func(m Message) {
		got = append(got, deliveryEvent(fc.Now(), m.Seq, m.Recovered))
	}
	cfg.OnGap = func(_ wire.ExperimentID, seq uint64) {
		got = append(got, winEvent{at: fc.Now(), kind: 'L', a: seq})
	}
	cfg.OnNAK = func(_ wire.ExperimentID, ranges []wire.SeqRange) {
		for _, r := range ranges {
			got = append(got, winEvent{at: fc.Now(), kind: 'N', a: r.From, b: r.To})
			for seq := r.From; seq <= r.To; seq++ {
				if ignores[seq] > 0 {
					ignores[seq]--
					continue
				}
				if ignores[seq] == 0 {
					push(fc.Now()+int64(100*time.Microsecond)+rng.Int63n(int64(4*winNAKRetry)), seq)
				}
			}
		}
	}
	eng := NewReceiverEngine(strictClock{fc, t}, nopDatapath{}, cfg)
	eng.SetSelf(wire.AddrFrom(10, 0, 0, 2, 200))

	losing := 0
	for i := 1; i <= sc.n; i++ {
		seq, at := uint64(i), int64(i)*int64(10*time.Microsecond)
		if losing > 0 || rng.Intn(100) < sc.loss {
			if losing == 0 {
				losing = sc.burst + 1
			}
			losing--
			ignores[seq] = rng.Intn(ref.cfg.MaxNAKs + 1)
			if ignores[seq] == ref.cfg.MaxNAKs {
				ignores[seq] = -1 // never retransmitted
			}
			continue
		}
		if rng.Intn(100) < sc.reorder {
			at += rng.Int63n(int64(3 * winNAKDelay))
		}
		push(at, seq)
		if rng.Intn(100) < sc.dup {
			push(at+rng.Int63n(int64(2*winNAKDelay)), seq)
		}
	}

	pkt := seqPacket(t, 1, wire.AddrFrom(10, 0, 0, 1, 100), "payload")
	exp := pkt.Experiment()
	checked := 0 // events already compared
	check := func(what string) {
		t.Helper()
		for ; checked < len(got) && checked < len(ref.log); checked++ {
			if got[checked] != ref.log[checked] {
				t.Fatalf("%+v: after %s event %d is %s, reference has %s", sc, what, checked, got[checked], ref.log[checked])
			}
		}
		if len(got) != len(ref.log) {
			t.Fatalf("%+v: after %s engine logged %d events, reference %d", sc, what, len(got), len(ref.log))
		}
		st := eng.streams[exp]
		if st == nil {
			return
		}
		if st.floor() != ref.floor || st.maxSeen != ref.maxSeen || eng.OutstandingGaps() != len(ref.missing) {
			t.Fatalf("%+v: after %s floor/maxSeen/gaps %d/%d/%d, reference %d/%d/%d", sc, what,
				st.floor(), st.maxSeen, eng.OutstandingGaps(), ref.floor, ref.maxSeen, len(ref.missing))
		}
		if int(eng.Stats().Duplicates) != ref.dups {
			t.Fatalf("%+v: after %s %d duplicates, reference %d", sc, what, eng.Stats().Duplicates, ref.dups)
		}
	}
	for steps := 0; ; steps++ {
		if steps > 100*sc.n+1000 {
			t.Fatalf("%+v: schedule did not drain", sc)
		}
		next, ok := fc.NextAt()
		if len(q) > 0 && (!ok || q[0].at < next) {
			next, ok = q[0].at, true
		}
		if !ok {
			break
		}
		fc.AdvanceTo(next)
		ref.advanceTo(next)
		check(fmt.Sprintf("timers to %d", next))
		for len(q) > 0 && q[0].at <= next {
			a := heap.Pop(&q).(arrival)
			if err := pkt.SetSeq(a.seq); err != nil {
				t.Fatal(err)
			}
			eng.Ingest(pkt)
			ref.ingest(a.seq, next)
			check(fmt.Sprintf("ingest of %d at %d", a.seq, next))
		}
	}
	if ref.timerSet || len(ref.missing) != 0 {
		t.Fatalf("%+v: reference still has %d gaps open after the engine drained", sc, len(ref.missing))
	}
}

func (e winEvent) String() string {
	return fmt.Sprintf("%c(%d,%d)@%d", e.kind, e.a, e.b, e.at)
}

func TestReceiverWindowMatchesReference(t *testing.T) {
	for _, sc := range []windowSchedule{
		{loss: 2, reorder: 5, dup: 1, maxNAKs: 3},
		{loss: 10, reorder: 20, dup: 5, maxNAKs: 4},
		{loss: 50, maxNAKs: 2},                        // alternating gaps
		{loss: 5, burst: 40, reorder: 10, maxNAKs: 3}, // long bursts
		{loss: 20, dup: 30, maxNAKs: 1},               // one request, then written off
		{loss: 10, reorder: 50, maxNAKs: 0},           // zero: the engine's default, five
		{loss: 10, reorder: 20, dup: 5, maxNAKs: 3, ordered: true},
		{loss: 30, burst: 5, maxNAKs: 2, ordered: true},
		{loss: 10, reorder: 20, dup: 5, maxNAKs: 3, ackInterval: 50 * time.Microsecond},
		{loss: 20, burst: 5, maxNAKs: 2, ordered: true, ackInterval: time.Millisecond},
	} {
		sc.n = 1500
		for seed := int64(1); seed <= 6; seed++ {
			sc.seed = seed
			runWindowSchedule(t, sc)
		}
	}
}

func FuzzReceiverWindow(f *testing.F) {
	f.Add(int64(1), uint16(400), uint8(5), uint8(10), uint8(2), uint8(0), uint8(3), false)
	f.Add(int64(2), uint16(900), uint8(50), uint8(0), uint8(0), uint8(0), uint8(2), true)
	f.Add(int64(3), uint16(300), uint8(8), uint8(40), uint8(20), uint8(30), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, loss, reorder, dup, burst, maxNAKs uint8, ordered bool) {
		runWindowSchedule(t, windowSchedule{
			seed: seed, n: int(n % 2048),
			loss: int(loss % 101), reorder: int(reorder % 101), dup: int(dup % 101), burst: int(burst % 64),
			maxNAKs: int(maxNAKs % 6), ordered: ordered,
		})
	})
}

// alternatingGaps ingests seqs 1, 3, 5, … so that n single-number gaps
// (2, 4, …, 2n) are open, and returns the next in-order sequence number.
func alternatingGaps(t testing.TB, eng *ReceiverEngine, pkt wire.View, n int) uint64 {
	t.Helper()
	for seq := uint64(1); seq <= uint64(2*n+1); seq += 2 {
		if err := pkt.SetSeq(seq); err != nil {
			t.Fatal(err)
		}
		eng.Ingest(pkt)
	}
	if got := eng.OutstandingGaps(); got != n {
		t.Fatalf("%d gaps open, want %d", got, n)
	}
	return uint64(2*n + 2)
}

// TestNAKSplitsAtDatagramSize: a fire with more due ranges than one
// unfragmented datagram holds must send several NAKs, not one packet the
// socket refuses (or, past 65535 ranges, none at all) while every gap's
// retry budget drains unanswered.
func TestNAKSplitsAtDatagramSize(t *testing.T) {
	const gaps = 5000
	fc := NewFakeClock(0)
	dp := &recDatapath{}
	var onNAK int
	eng := NewReceiverEngine(fc, dp, ReceiverConfig{
		NAKDelay: time.Millisecond, NAKRetry: 5 * time.Millisecond, NAKRetryMax: 500 * time.Millisecond,
		MaxNAKs: 3,
		OnNAK:   func(wire.ExperimentID, []wire.SeqRange) { onNAK++ },
	})
	pkt := seqPacket(t, 1, wire.AddrFrom(10, 0, 0, 1, 100), "payload")
	start := time.Now()
	alternatingGaps(t, eng, pkt, gaps)
	t.Logf("ingested %d alternating gaps in %v", gaps, time.Since(start))
	fc.Advance(time.Millisecond)

	want := (gaps + maxNAKRanges - 1) / maxNAKRanges
	if len(dp.control) != want || onNAK != want || int(eng.Stats().NAKsSent) != want {
		t.Fatalf("%d control packets, %d OnNAK calls, NAKsSent %d; want %d of each",
			len(dp.control), onNAK, eng.Stats().NAKsSent, want)
	}
	next := uint64(2)
	for i, data := range dp.control {
		if len(data) > 1472 {
			t.Fatalf("NAK %d is %d bytes: does not fit a 1500-byte-MTU datagram", i, len(data))
		}
		var nak wire.NAK
		if err := nak.DecodeFrom(data); err != nil {
			t.Fatalf("NAK %d: %v", i, err)
		}
		for _, r := range nak.Ranges {
			if r.From != next || r.To != next {
				t.Fatalf("NAK %d requests %d..%d, want %d", i, r.From, r.To, next)
			}
			next += 2
		}
	}
	if next != 2*gaps+2 {
		t.Fatalf("NAKs stop before %d, want every even number to %d", next, 2*gaps)
	}
}

// TestLateJoinResyncs: a receiver that joins a running stream more than
// MaxSeqJump in sees nothing but implausible sequence numbers. After
// resyncRun consecutive ascending ones it must take them for the stream,
// re-base below the first, and fetch the ones it rejected meanwhile by NAK.
func TestLateJoinResyncs(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		fc := NewFakeClock(0)
		buffer := wire.AddrFrom(10, 0, 0, 1, 100)
		var delivered, lost []uint64
		var naks [][]wire.SeqRange
		eng := NewReceiverEngine(strictClock{fc, t}, &recDatapath{}, ReceiverConfig{
			NAKDelay: time.Millisecond, NAKRetry: 5 * time.Millisecond, NAKRetryMax: 500 * time.Millisecond,
			MaxNAKs: 3, Ordered: ordered,
			Deliver: func(m Message) { delivered = append(delivered, m.Seq) },
			OnGap:   func(_ wire.ExperimentID, seq uint64) { lost = append(lost, seq) },
			OnNAK: func(_ wire.ExperimentID, rs []wire.SeqRange) {
				naks = append(naks, append([]wire.SeqRange(nil), rs...))
			},
		})
		// An old window with one gap open: the re-base writes it off.
		eng.Ingest(seqPacket(t, 1, buffer, "a"))
		eng.Ingest(seqPacket(t, 3, buffer, "c"))

		const first = 2_000_000
		for i := uint64(0); i < resyncRun; i++ {
			eng.Ingest(seqPacket(t, first+i, buffer, "x"))
		}
		if st := eng.Stats(); st.Rejected != resyncRun-1 || st.Lost != 1 {
			t.Fatalf("ordered=%v: after the run: %+v", ordered, st)
		}
		if len(lost) != 1 || lost[0] != 2 {
			t.Fatalf("ordered=%v: written off %v, want [2]", ordered, lost)
		}
		if got := eng.OutstandingGaps(); got != resyncRun-1 {
			t.Fatalf("ordered=%v: %d gaps open after re-base, want the %d rejected packets", ordered, got, resyncRun-1)
		}
		fc.Advance(time.Millisecond)
		if len(naks) != 1 || len(naks[0]) != 1 || naks[0][0] != (wire.SeqRange{From: first, To: first + resyncRun - 2}) {
			t.Fatalf("ordered=%v: NAKs %v", ordered, naks)
		}
		for i := uint64(0); i < resyncRun-1; i++ {
			eng.Ingest(seqPacket(t, first+i, buffer, "x")) // the relay's retransmissions
		}
		eng.Ingest(seqPacket(t, first+resyncRun, buffer, "y")) // the stream goes on
		if st := eng.Stats(); st.Recovered != resyncRun-1 || st.Rejected != resyncRun-1 || eng.OutstandingGaps() != 0 {
			t.Fatalf("ordered=%v: after recovery: %+v, %d gaps", ordered, st, eng.OutstandingGaps())
		}
		want := []uint64{1, 3, first + resyncRun - 1}
		if ordered {
			want = []uint64{1, 3}
		}
		for i := uint64(0); i < resyncRun-1; i++ {
			want = append(want, first+i)
		}
		if ordered {
			want = append(want, first+resyncRun-1)
		}
		want = append(want, first+resyncRun)
		if fmt.Sprint(delivered) != fmt.Sprint(want) {
			t.Fatalf("ordered=%v: delivered %v, want %v", ordered, delivered, want)
		}
		if eng.streams[wire.NewExperimentID(7, 0)].floor() != first+resyncRun {
			t.Fatalf("ordered=%v: floor %d", ordered, eng.streams[wire.NewExperimentID(7, 0)].floor())
		}
	}
}

// TestCorruptSeqOnlyRejected: implausible sequence numbers that do not
// form an ascending run inside one MaxSeqJump window — a single corrupted
// field, or any number of unrelated ones — change nothing but Rejected.
func TestCorruptSeqOnlyRejected(t *testing.T) {
	fc := NewFakeClock(0)
	buffer := wire.AddrFrom(10, 0, 0, 1, 100)
	var delivered []uint64
	eng := NewReceiverEngine(fc, &recDatapath{}, ReceiverConfig{
		NAKDelay: time.Millisecond, NAKRetry: 5 * time.Millisecond, NAKRetryMax: 500 * time.Millisecond,
		MaxNAKs: 3,
		Deliver: func(m Message) { delivered = append(delivered, m.Seq) },
	})
	seq := uint64(0)
	inOrder := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			eng.Ingest(seqPacket(t, seq, buffer, "p"))
		}
	}
	inOrder(4)
	eng.Ingest(seqPacket(t, 1<<40, buffer, "corrupt"))
	inOrder(4)
	// Descending, repeated, and too spread out to be one stream: none of
	// these runs may re-base, however long.
	for _, corrupt := range []func(i uint64) uint64{
		func(i uint64) uint64 { return 1<<50 - i },
		func(i uint64) uint64 { return 1 << 41 },
		func(i uint64) uint64 { return 1<<42 + i*(DefaultMaxSeqJump/4) },
	} {
		for i := uint64(0); i < 3*resyncRun; i++ {
			eng.Ingest(seqPacket(t, corrupt(i), buffer, "corrupt"))
		}
	}
	// An ascending run interrupted by genuine traffic starts over.
	for i := uint64(0); i < 3*resyncRun; i++ {
		eng.Ingest(seqPacket(t, 1<<43+i, buffer, "corrupt"))
		if i%(resyncRun-1) == resyncRun-2 {
			inOrder(1)
		}
	}
	st := eng.Stats()
	if want := uint64(1 + 9*resyncRun + 3*resyncRun); st.Rejected != want {
		t.Fatalf("rejected %d, want %d", st.Rejected, want)
	}
	if st.Delivered != seq || st.GapsSeen != 0 || st.Lost != 0 || st.Duplicates != 0 || eng.OutstandingGaps() != 0 {
		t.Fatalf("corrupt packets changed the stream: %+v (in-order packets sent: %d)", st, seq)
	}
	for i, s := range delivered {
		if s != uint64(i+1) {
			t.Fatalf("delivered %v", delivered)
		}
	}
}

// BenchmarkReceiverIngest measures in-order ingest. The gaps=k cases take a
// Sequenced|Reliable packet with k gaps held open: their cost must not
// depend on k. The live case takes the live relay's onward packet
// (ModeLive's five fields, origin timestamp and deadline in range, 1 KiB
// payload), as the live receiver runs it. Every delivery aliases its
// packet, and none may allocate.
func BenchmarkReceiverIngest(b *testing.B) {
	for _, gaps := range []int{0, 64, 4096} {
		b.Run(fmt.Sprintf("gaps=%d", gaps), func(b *testing.B) {
			pkt := seqPacket(b, 1, wire.AddrFrom(10, 0, 0, 1, 100), "payload")
			benchIngest(b, pkt, gaps)
		})
	}
	b.Run("live", func(b *testing.B) {
		h := wire.Header{ConfigID: ModeLive.ConfigID, Features: ModeLive.Features, Experiment: wire.NewExperimentID(7, 0)}
		h.Retransmit.Buffer = rigSelf
		h.Age.MaxAgeMicros = uint32(500 * time.Millisecond / time.Microsecond)
		h.Deadline.DeadlineNanos = uint64(rigStart + int64(time.Second))
		h.Timestamp.OriginNanos = uint64(rigStart - int64(time.Millisecond))
		enc, err := h.AppendTo(nil)
		if err != nil {
			b.Fatal(err)
		}
		benchIngest(b, append(enc, make([]byte, 1024)...), 0)
	})
}

// benchIngest times in-order ingest of pkt, renumbered each step, after
// opening gaps gaps, and fails if a step allocates.
func benchIngest(b *testing.B, pkt wire.View, gaps int) {
	eng := NewReceiverEngine(NewFakeClock(rigStart), nopDatapath{}, ReceiverConfig{
		NAKDelay: time.Millisecond, NAKRetry: 5 * time.Millisecond, NAKRetryMax: 500 * time.Millisecond,
		MaxNAKs: 3,
	})
	seq := alternatingGaps(b, eng, pkt, gaps)
	step := func() {
		if err := pkt.SetSeq(seq); err != nil {
			b.Fatal(err)
		}
		seq++
		eng.Ingest(pkt)
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		b.Fatalf("in-order ingest with %d gaps open allocates %.2f allocs/op, want 0", gaps, avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
