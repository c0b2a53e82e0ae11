package dmtp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
)

// The retransmission stash against its reference model. refStash is the
// stash as it stood before the per-experiment runs replaced it — one map
// keyed by (experiment, seq) plus one shard-wide FIFO of keys, Trim filtering
// and rewriting the whole FIFO — kept as the executable statement of what
// the engine must still do: same occupancy, same counters, and the same
// Release, Journal and SendData calls in the same order, eviction key for
// key. The one thing the map did that the engine no longer does, overwrite
// a live key (which leaked the first buffer), is excluded: the model turns
// away what the contract turns away, a number at or below the newest one
// the experiment holds.

// stashEvent is one call the stash made on its hooks.
type stashEvent struct {
	kind byte // 'R'elease, 'A'ppend, 'T'ombstone, tri'M', 'S'endData
	exp  wire.ExperimentID
	seq  uint64
	pkt  string
}

// String names a packet by the ordinal its payload ends with.
func (e stashEvent) String() string {
	id := strings.TrimSpace(e.pkt[strings.LastIndexByte(e.pkt, '#')+1:])
	return fmt.Sprintf("%c(%#x,%d,#%s)", e.kind, uint64(e.exp), e.seq, id)
}

// stashLog records hook calls; it is the Release hook, the Journal and the
// Datapath of whichever stash it is wired to.
type stashLog struct{ events []stashEvent }

func (l *stashLog) release(pkt []byte) {
	l.events = append(l.events, stashEvent{kind: 'R', pkt: string(pkt)})
}
func (l *stashLog) Append(exp wire.ExperimentID, seq uint64, pkt []byte) {
	l.events = append(l.events, stashEvent{'A', exp, seq, string(pkt)})
}
func (l *stashLog) Tombstone(exp wire.ExperimentID, seq uint64) {
	l.events = append(l.events, stashEvent{kind: 'T', exp: exp, seq: seq})
}
func (l *stashLog) TrimTo(exp wire.ExperimentID, cum uint64) {
	l.events = append(l.events, stashEvent{kind: 'M', exp: exp, seq: cum})
}
func (l *stashLog) SendControl(wire.Addr, []byte) {}
func (l *stashLog) SendData(dst wire.Addr, pkt []byte) {
	l.events = append(l.events, stashEvent{kind: 'S', seq: uint64(dst.Port), pkt: string(pkt)})
}

type refKey struct {
	exp wire.ExperimentID
	seq uint64
}

type refStash struct {
	capacity int
	log      *stashLog
	stats    BufferStats

	seqs  map[wire.ExperimentID]uint64
	store map[refKey][]byte
	order []refKey // FIFO for eviction
	bytes int
}

func newRefStash(capacity int, log *stashLog) *refStash {
	return &refStash{capacity: capacity, log: log,
		seqs: make(map[wire.ExperimentID]uint64), store: make(map[refKey][]byte)}
}

func (r *refStash) nextSeq(exp wire.ExperimentID) uint64 {
	r.seqs[exp]++
	return r.seqs[exp]
}

func (r *refStash) restoreSeq(exp wire.ExperimentID, seq uint64) {
	if r.seqs[exp] < seq {
		r.seqs[exp] = seq
	}
}

func (r *refStash) stash(exp wire.ExperimentID, seq uint64, pkt []byte, journal bool) bool {
	for _, k := range r.order {
		if k.exp == exp && k.seq >= seq {
			r.stats.Refused++
			return false
		}
	}
	for r.bytes+len(pkt) > r.capacity && len(r.order) > 0 {
		oldest := r.order[0]
		r.order = r.order[1:]
		old := r.store[oldest]
		r.bytes -= len(old)
		delete(r.store, oldest)
		r.log.release(old)
		r.stats.ReleasedBytes += uint64(len(old))
		r.stats.Evicted++
		r.log.Tombstone(oldest.exp, oldest.seq)
	}
	k := refKey{exp, seq}
	r.store[k] = pkt
	r.order = append(r.order, k)
	r.bytes += len(pkt)
	r.stats.Buffered++
	r.stats.BufferedBytes += uint64(len(pkt))
	if journal {
		r.log.Append(exp, seq, pkt)
	}
	return true
}

func (r *refStash) serveNAK(nak *wire.NAK) {
	r.stats.NAKs++
	var served uint64
	budget := DefaultMaxSeqJump
	for _, rg := range nak.Ranges {
		for seq := rg.From; seq <= rg.To && budget > 0; seq++ {
			budget--
			if pkt, ok := r.store[refKey{nak.Experiment, seq}]; ok {
				r.log.SendData(nak.Requester, pkt)
				r.stats.Retransmits++
				served++
			}
			if seq == rg.To {
				break
			}
		}
	}
	r.stats.Misses += nak.TotalMissing() - served
}

func (r *refStash) trim(exp wire.ExperimentID, cum uint64) {
	kept := r.order[:0]
	for _, k := range r.order {
		if k.exp == exp && k.seq <= cum {
			old := r.store[k]
			r.bytes -= len(old)
			delete(r.store, k)
			r.log.release(old)
			r.stats.ReleasedBytes += uint64(len(old))
			r.stats.Trimmed++
			continue
		}
		kept = append(kept, k)
	}
	r.order = kept
	r.log.TrimTo(exp, cum)
}

func (r *refStash) crash() {
	r.stats.Crashes++
	for _, pkt := range r.store {
		r.stats.ReleasedBytes += uint64(len(pkt))
		r.log.release(pkt)
	}
	r.store = make(map[refKey][]byte)
	r.order = nil
	r.bytes = 0
}

// stashSchedule parameterises one seeded run of n operations over flows
// interleaved experiments: ascending stashes (holes percent of them skip
// ahead, a few repeat or go backwards), cumulative ACKs, NAKs, crashes and
// journal-restore bursts, against a stash of capacity bytes.
type stashSchedule struct {
	seed     int64
	n        int
	flows    int
	capacity int
	holes    int
}

// runStashSchedule drives the engine and the reference with sc and fails at
// the first operation after which they disagree.
func runStashSchedule(t testing.TB, sc stashSchedule) {
	t.Helper()
	rng := rand.New(rand.NewSource(sc.seed))
	var engLog, refLog stashLog
	eng := NewBufferEngine(&engLog, BufferConfig{CapacityBytes: sc.capacity, Release: engLog.release, Journal: &engLog})
	ref := newRefStash(sc.capacity, &refLog)

	exps := make([]wire.ExperimentID, sc.flows)
	for i := range exps {
		exps[i] = wire.NewExperimentID(uint32(i+1), uint8(i%3))
	}
	requester := wire.AddrFrom(10, 0, 0, 9, 900)
	made := 0
	// packet builds a fresh sequenced packet of a drawn length; the ordinal
	// in its payload makes every buffer distinguishable in the logs.
	packet := func(seq uint64) wire.View {
		made++
		return seqPacket(t, seq, requester, fmt.Sprintf("#%d%*s", made, rng.Intn(40), ""))
	}
	// gone holds every buffer the stash no longer answers for: turned away
	// (still the caller's) or already released.
	gone := make(map[string]bool)
	// insert offers one packet to both stashes, each its own copy.
	insert := func(exp wire.ExperimentID, seq uint64, journal bool) {
		pkt := packet(seq)
		var got bool
		if journal {
			got = eng.Stash(exp, seq, pkt.Clone())
		} else {
			got = eng.RestoreStash(exp, seq, pkt.Clone())
		}
		if want := ref.stash(exp, seq, pkt, journal); got != want {
			t.Fatalf("seed %d: stash(%v, %d) accepted=%v, reference %v", sc.seed, exp, seq, got, want)
		}
		if !got {
			gone[string(pkt)] = true
		}
	}
	// restoreBurst replays a journal recovery: per experiment an ascending
	// run with lost records, now and then one record out of order.
	restoreBurst := func() {
		for _, exp := range exps[:1+rng.Intn(len(exps))] {
			seq := ref.seqs[exp]/2 + 1
			for i := rng.Intn(6); i > 0; i-- {
				insert(exp, seq, false)
				if rng.Intn(10) == 0 {
					insert(exp, seq-uint64(rng.Intn(2)), false)
				}
				seq += 1 + uint64(rng.Intn(3))
			}
			eng.RestoreSeq(exp, seq)
			ref.restoreSeq(exp, seq)
		}
	}

	wideLeft := 1 // one whole-space NAK per run: each costs 2^20 lookups a side
	for op := 0; op < sc.n; op++ {
		exp := exps[rng.Intn(len(exps))]
		newest := ref.seqs[exp]
		var what string
		switch p := rng.Intn(100); {
		case p < 62:
			seq := eng.NextSeq(exp)
			if want := ref.nextSeq(exp); seq != want {
				t.Fatalf("seed %d op %d: NextSeq(%v) = %d, reference %d", sc.seed, op, exp, seq, want)
			}
			switch q := rng.Intn(100); {
			case q < sc.holes:
				// Skip ahead, as transit adoption across a loss does.
				seq += uint64(1 + rng.Intn(4))
				eng.RestoreSeq(exp, seq)
				ref.restoreSeq(exp, seq)
			case q >= 96:
				// Not ascending: a number already handed out.
				seq = 1 + uint64(rng.Int63n(int64(seq)))
			}
			what = fmt.Sprintf("stash(%v, %d)", exp, seq)
			insert(exp, seq, true)
		case p < 80:
			var cum uint64
			switch rng.Intn(5) {
			case 0:
				cum = math.MaxUint64
			case 1:
				cum = newest + uint64(rng.Intn(3))
			default: // stale, partial or exact
				cum = uint64(rng.Int63n(int64(newest) + 1))
			}
			what = fmt.Sprintf("trim(%v, %d)", exp, cum)
			eng.Trim(exp, cum)
			ref.trim(exp, cum)
		case p < 94:
			nak := &wire.NAK{Experiment: exp, Requester: requester}
			for i := 1 + rng.Intn(3); i > 0; i-- {
				from := uint64(rng.Int63n(int64(newest) + 3)) // 0 and past the newest included
				to := from
				if rng.Intn(2) == 0 {
					to += uint64(rng.Intn(12))
				}
				nak.Ranges = append(nak.Ranges, wire.SeqRange{From: from, To: to})
			}
			if wideLeft > 0 && op > sc.n/2 {
				wideLeft--
				nak.Ranges = append(nak.Ranges, wire.SeqRange{From: 1, To: math.MaxUint64})
			}
			what = fmt.Sprintf("nak(%v, %v)", exp, nak.Ranges)
			eng.ServeNAK(nak)
			ref.serveNAK(nak)
		case p < 97:
			what = "crash, restart, restore"
			eng.Crash()
			ref.crash()
			// The model's crash walks a map; only the set of releases is defined.
			byPkt := func(a, b stashEvent) int { return strings.Compare(a.pkt, b.pkt) }
			slices.SortFunc(engLog.events, byPkt)
			slices.SortFunc(refLog.events, byPkt)
			eng.Restart()
			restoreBurst()
		default:
			what = "restore"
			restoreBurst()
		}

		if !slices.Equal(engLog.events, refLog.events) {
			t.Fatalf("seed %d op %d %s: hook calls differ\nengine    %v\nreference %v", sc.seed, op, what, engLog.events, refLog.events)
		}
		if eng.BufferedBytes() != ref.bytes || eng.Stats() != ref.stats || eng.SeqOf(exp) != ref.seqs[exp] {
			t.Fatalf("seed %d op %d %s: engine holds %d bytes with %+v, reference %d with %+v",
				sc.seed, op, what, eng.BufferedBytes(), eng.Stats(), ref.bytes, ref.stats)
		}
		// Each buffer is released at most once, and never one the stash
		// turned away: that one is still the caller's.
		for _, e := range engLog.events {
			if e.kind != 'R' {
				continue
			}
			if gone[e.pkt] {
				t.Fatalf("seed %d op %d %s: released %q twice, or after refusing it", sc.seed, op, what, e.pkt)
			}
			gone[e.pkt] = true
		}
		engLog.events, refLog.events = engLog.events[:0], refLog.events[:0]
	}
	if st := eng.Stats(); st.BufferedBytes-st.ReleasedBytes != uint64(eng.BufferedBytes()) {
		t.Fatalf("seed %d: stash balance broken: %+v with %d bytes held", sc.seed, st, eng.BufferedBytes())
	}
}

func TestBufferStashMatchesReference(t *testing.T) {
	for _, sc := range []stashSchedule{
		{flows: 1, capacity: 1 << 20, holes: 0},   // one run, never full
		{flows: 1, capacity: 300, holes: 5},       // evicts on most inserts
		{flows: 7, capacity: 600, holes: 10},      // eviction interleaved across experiments
		{flows: 64, capacity: 2000, holes: 3},     // many short windows
		{flows: 64, capacity: 1 << 20, holes: 30}, // windows that are mostly holes
		{flows: 3, capacity: 40, holes: 5},        // smaller than any packet
	} {
		sc.n = 1500
		for seed := int64(1); seed <= 4; seed++ {
			sc.seed = seed
			runStashSchedule(t, sc)
		}
	}
}

func FuzzBufferStash(f *testing.F) {
	f.Add(int64(1), uint16(400), uint8(0), uint16(300), uint8(5))
	f.Add(int64(2), uint16(900), uint8(63), uint16(2000), uint8(3))
	f.Add(int64(3), uint16(300), uint8(6), uint16(65535), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, flows uint8, capacity uint16, holes uint8) {
		runStashSchedule(t, stashSchedule{
			seed: seed, n: int(n % 2048), flows: 1 + int(flows%64),
			capacity: 1 + int(capacity), holes: int(holes % 96),
		})
	})
}

// TestBufferEngineRefusesRestash: a second Stash of a number the experiment
// still holds used to overwrite the map entry without letting go of the
// first buffer, which then stayed in BufferedBytes() forever and never
// reached Release. It is refused instead: the first buffer is the one held,
// the second stays the caller's.
func TestBufferEngineRefusesRestash(t *testing.T) {
	var released []string
	eng := NewBufferEngine(nopDatapath{}, BufferConfig{
		Release: func(pkt []byte) { released = append(released, string(pkt)) },
	})
	exp := wire.NewExperimentID(7, 0)
	if !eng.Stash(exp, 1, []byte("aaaa")) {
		t.Fatal("first stash refused")
	}
	if eng.Stash(exp, 1, []byte("bbbb")) {
		t.Fatal("re-stash of a held number accepted")
	}
	eng.Trim(exp, 1)
	st := eng.Stats()
	if eng.BufferedBytes() != 0 || st.Buffered != 1 || st.Refused != 1 || st.BufferedBytes != st.ReleasedBytes {
		t.Fatalf("after stash, re-stash, trim: %d bytes held, stats %+v", eng.BufferedBytes(), st)
	}
	if !slices.Equal(released, []string{"aaaa"}) {
		t.Fatalf("released %q, want exactly the accepted buffer", released)
	}
	// Ahead of the newest is a hole, not a refusal; behind it is refused
	// even where nothing is held.
	if !eng.Stash(exp, 2, []byte("cc")) || !eng.Stash(exp, 5, []byte("ee")) || eng.Stash(exp, 4, []byte("dd")) {
		t.Fatal("want 2 and 5 accepted, 4 refused")
	}
	eng.ServeNAK(&wire.NAK{Experiment: exp, Ranges: []wire.SeqRange{{From: 1, To: 6}}})
	if st := eng.Stats(); st.Retransmits != 2 || st.Misses != 4 || st.Refused != 2 {
		t.Fatalf("hole window: %+v", st)
	}
}

// benchFlows builds n experiment IDs.
func benchFlows(n int) []wire.ExperimentID {
	exps := make([]wire.ExperimentID, n)
	for i := range exps {
		exps[i] = wire.NewExperimentID(uint32(i+1), 0)
	}
	return exps
}

// BenchmarkBufferTrim measures the acknowledged steady state with depth
// packets held across the flows: every op stashes one packet, and every
// sixteenth op of a flow ACKs that flow's oldest sixteen. The cost must not
// depend on depth — what other flows hold is not an ACK's business — and
// must not allocate.
func BenchmarkBufferTrim(b *testing.B) {
	for _, flows := range []int{1, 64} {
		for _, depth := range []int{1 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("flows=%d/depth=%dk", flows, depth>>10), func(b *testing.B) {
				eng := NewBufferEngine(nopDatapath{}, BufferConfig{CapacityBytes: 1 << 40})
				exps := benchFlows(flows)
				acked := make([]uint64, flows)
				pkt := make([]byte, 64)
				i := 0
				step := func() {
					f := i % flows
					i++
					seq := eng.NextSeq(exps[f])
					eng.Stash(exps[f], seq, pkt)
					if seq%16 == 0 && seq-acked[f] > uint64(depth/flows) {
						acked[f] += 16
						eng.Trim(exps[f], acked[f])
					}
				}
				for eng.BufferedBytes() < depth*len(pkt) {
					step()
				}
				for range 4 * depth { // let every window's slice settle
					step()
				}
				if avg := testing.AllocsPerRun(1000, step); avg != 0 {
					b.Fatalf("stash+trim with %d held allocates %.2f allocs/op, want 0", depth, avg)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					step()
				}
			})
		}
	}
}

// BenchmarkBufferEvict measures the unacknowledged steady state, the
// daemons' default: the stash is full and every insert evicts the shard's
// oldest entry, which belongs to another flow each time. The cost may grow
// with log(flows) and no faster, and must not allocate.
func BenchmarkBufferEvict(b *testing.B) {
	for _, flows := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			pkt := make([]byte, 64)
			const held = 16 << 10
			eng := NewBufferEngine(nopDatapath{}, BufferConfig{CapacityBytes: held * len(pkt)})
			exps := benchFlows(flows)
			i := 0
			step := func() {
				f := i % flows
				i++
				eng.Stash(exps[f], eng.NextSeq(exps[f]), pkt)
			}
			for range 8 * held {
				step()
			}
			if st := eng.Stats(); st.Evicted != 7*held {
				b.Fatalf("warm-up evicted %d of %d inserts, want all but the first %d", st.Evicted, 8*held, held)
			}
			if avg := testing.AllocsPerRun(1000, step); avg != 0 {
				b.Fatalf("evict-per-insert over %d flows allocates %.2f allocs/op, want 0", flows, avg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				step()
			}
		})
	}
}
