package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// EventKind names one flight-recorder event type. The set covers every
// protocol decision an operator needs when reconstructing "what happened
// just before the flow stalled": loss detection, the NAK round trip,
// write-offs and buffer lifecycle. No kind is recorded for every packet,
// so the ring holds decisions and bursts, not traffic. OBSERVABILITY.md
// documents the per-kind meaning of the Seq and Aux fields.
type EventKind uint8

// The recorded protocol events.
const (
	// EvGapDetected: a sequence gap opened. Seq = first missing, Aux =
	// last missing of the contiguous run.
	EvGapDetected EventKind = iota + 1
	// EvNAKSent: the receiver emitted one NAK packet. Seq = first
	// requested sequence, Aux = number of sequence numbers requested.
	EvNAKSent
	// EvNAKServed: a buffer served one NAK packet. Seq = first requested
	// sequence, Aux = retransmissions actually sent.
	EvNAKServed
	// EvNAKMiss: NAKed sequence numbers were no longer buffered. Seq =
	// first missing, Aux = how many missed.
	EvNAKMiss
	// EvRecovered: a NAKed packet arrived. Seq = its sequence, Aux = how
	// many NAKs it took.
	EvRecovered
	// EvWriteOff: recovery abandoned after MaxNAKs. Seq = the sequence
	// written off as permanent loss, Aux = the NAKs spent before giving up.
	EvWriteOff
	// EvReshape: a packet's mode was rewritten in flight. Seq = assigned
	// sequence number, Aux = the new config ID. The relay records none
	// (a per-packet event would flood the ring); dmtp.relay.upgraded and
	// dmtp.relay.reshapes.config* count its reshapes instead.
	EvReshape
	// EvEvict: a run of capacity evictions (oldest first) that share one
	// timestamp — one burst's, on the live relay. Seq = the first evicted
	// sequence, Aux = entries evicted, Exp = their experiment, or 0 when
	// the run spans several.
	EvEvict
	// EvTrim: a cumulative ACK trimmed the stash. Seq = the cumulative
	// sequence, Aux = entries released.
	EvTrim
	// EvCrash: a buffer process crashed; its stash is lost. Aux = bytes
	// released cold.
	EvCrash
	// EvRestart: a crashed buffer came back with a cold stash.
	EvRestart
	// EvBackPressure: a congestion signal reached the sender. Aux = the
	// signal level (255 = pause).
	EvBackPressure
	// EvReconnect: the live sender's flush redialled after a socket write
	// error. Aux = consecutive failed writes before the redial succeeded.
	EvReconnect
	// EvInjectedDrop: a scripted fault dropped a packet on purpose. Seq =
	// the dropped sequence.
	EvInjectedDrop
)

var eventKindNames = [...]string{
	EvGapDetected:  "gap-detected",
	EvNAKSent:      "nak-sent",
	EvNAKServed:    "nak-served",
	EvNAKMiss:      "nak-miss",
	EvRecovered:    "recovered",
	EvWriteOff:     "write-off",
	EvReshape:      "reshape",
	EvEvict:        "evict",
	EvTrim:         "trim",
	EvCrash:        "crash",
	EvRestart:      "restart",
	EvBackPressure: "backpressure",
	EvReconnect:    "reconnect",
	EvInjectedDrop: "injected-drop",
}

// String returns the kind's kebab-case name ("gap-detected", "nak-sent", …).
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// MarshalText encodes the kind as its name, so an event's JSON reads
// "kind": "nak-sent" and decodes back to the same kind.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name written by MarshalText. A name that
// is not a defined kind is an error.
func (k *EventKind) UnmarshalText(text []byte) error {
	kind, ok := EventKindFromName(string(text))
	if !ok {
		return fmt.Errorf("metrics: unknown event kind %q", text)
	}
	*k = kind
	return nil
}

// EventKindNames lists every defined kind name in declaration order —
// the valid vocabulary for /events?kind= filtering, surfaced in error
// responses so a typo comes back with the fix attached.
func EventKindNames() []string {
	return append([]string(nil), eventKindNames[1:]...)
}

// EventKindFromName resolves a kebab-case kind name back to its EventKind —
// the inverse of String, used by /events?kind= filtering so the query
// vocabulary is exactly the recorded one.
func EventKindFromName(name string) (EventKind, bool) {
	for k, n := range eventKindNames {
		if n == name {
			return EventKind(k), true
		}
	}
	return 0, false
}

// Event is one recorded protocol event. All fields are fixed-size scalars
// so recording is allocation-free. At is substrate time in nanoseconds:
// Unix nanoseconds on the live path, virtual nanoseconds since simulation
// start on the simulator (see FlightRecorder.RecordAt).
type Event struct {
	At   int64     `json:"at"`
	Kind EventKind `json:"kind"`
	// Exp is the numeric experiment ID the event belongs to (0 when the
	// event is not stream-scoped, e.g. crash/restart).
	Exp uint64 `json:"exp"`
	// Seq and Aux are kind-specific; see the EventKind constants.
	Seq uint64 `json:"seq"`
	Aux uint64 `json:"aux"`
}

// wallEpochThreshold distinguishes wall-clock timestamps from virtual-time
// ones when rendering: 2^53 ns ≈ 104 days of virtual time, vs Unix nanos
// which passed that in 1970.
const wallEpochThreshold = int64(1) << 53

// String renders the event as one human-readable line.
func (e Event) String() string {
	var b strings.Builder
	if e.At >= wallEpochThreshold {
		b.WriteString(time.Unix(0, e.At).UTC().Format("15:04:05.000000"))
	} else {
		fmt.Fprintf(&b, "%12v", time.Duration(e.At))
	}
	fmt.Fprintf(&b, "  %-13s", e.Kind.String())
	if e.Exp != 0 {
		fmt.Fprintf(&b, " exp=%#x", e.Exp)
	}
	if e.Seq != 0 {
		fmt.Fprintf(&b, " seq=%d", e.Seq)
	}
	if e.Aux != 0 {
		fmt.Fprintf(&b, " aux=%d", e.Aux)
	}
	return b.String()
}

// frSlot is one ring entry. Fields are individual atomics and a seqlock
// version so writers never block and a concurrent Snapshot never reads a
// torn event: ver is odd while a write is in progress, and a reader
// discards any slot whose version changed (or was odd) across its reads.
// A seqlock admits one writer at a time, so a writer claims the slot by
// CAS from even to odd; whoever loses the claim drops its event.
type frSlot struct {
	ver  atomic.Uint64
	at   atomic.Int64
	kind atomic.Uint32
	exp  atomic.Uint64
	seq  atomic.Uint64
	aux  atomic.Uint64
}

// FlightRecorder is a fixed-size lock-free ring of recent protocol events —
// the always-on black box of the live daemons, dumped on demand via the
// /events debug endpoint; the simulator's engines record into one too,
// stamped with virtual time (what the campaign oracles count). Recording
// never allocates, never takes a lock, and overwrites the oldest events
// once the ring is full.
//
// Writers pick distinct slots with one atomic add; a slot is only ever
// contended if the ring wraps fully while a write is still in flight, in
// which case the writer that finds the slot claimed drops its event
// (counted in Dropped) rather than interleave its fields with the other's.
// A nil *FlightRecorder is a valid no-op recorder, so components take one
// unconditionally.
type FlightRecorder struct {
	mask    uint64
	pos     atomic.Uint64 // next index to claim; total events ever recorded
	dropped atomic.Uint64 // events lost to a slot another writer held
	slots   []frSlot
	now     func() int64
}

// DefaultFlightRecorderSize is the ring capacity NewFlightRecorder applies
// when given a non-positive size.
const DefaultFlightRecorderSize = 4096

// NewFlightRecorder returns a recorder holding the most recent `capacity`
// events (rounded up to a power of two; ≤ 0 means
// DefaultFlightRecorderSize). Timestamps for Record default to wall-clock
// Unix nanoseconds; engines driven by a substrate clock use RecordAt.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRecorderSize
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{
		mask:  uint64(n - 1),
		slots: make([]frSlot, n),
		now:   func() int64 { return time.Now().UnixNano() },
	}
}

// Record records one event stamped with the wall clock. No-op on a nil
// recorder.
func (r *FlightRecorder) Record(kind EventKind, exp, seq, aux uint64) {
	if r == nil {
		return
	}
	r.RecordAt(r.now(), kind, exp, seq, aux)
}

// RecordAt records one event with an explicit timestamp (the substrate
// clock's nanoseconds). No-op on a nil recorder. Allocation- and lock-free.
func (r *FlightRecorder) RecordAt(at int64, kind EventKind, exp, seq, aux uint64) {
	if r == nil {
		return
	}
	i := r.pos.Add(1) - 1
	s := &r.slots[i&r.mask]
	v := s.ver.Load()
	if v%2 != 0 || !s.ver.CompareAndSwap(v, v+1) { // odd: write in progress
		r.dropped.Add(1)
		return
	}
	s.at.Store(at)
	s.kind.Store(uint32(kind))
	s.exp.Store(exp)
	s.seq.Store(seq)
	s.aux.Store(aux)
	s.ver.Store(v + 2) // even: stable
}

// Total returns how many events were ever recorded (including ones already
// overwritten). Zero on a nil recorder.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.pos.Load()
}

// Dropped returns how many of those events were lost because the ring
// lapped onto a slot another writer was still filling. Zero on a nil
// recorder.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Cap returns the ring capacity. Zero on a nil recorder.
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Snapshot returns the retained events, oldest first. Events being
// overwritten concurrently are skipped rather than returned torn; under a
// quiet recorder the result is exactly the last min(Total, Cap) events in
// recording order. Nil on a nil recorder.
func (r *FlightRecorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	end := r.pos.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if end > n {
		start = end - n
	}
	out := make([]Event, 0, end-start)
	for i := start; i < end; i++ {
		s := &r.slots[i&r.mask]
		v1 := s.ver.Load()
		if v1%2 != 0 {
			continue // write in progress
		}
		ev := Event{
			At:   s.at.Load(),
			Kind: EventKind(s.kind.Load()),
			Exp:  s.exp.Load(),
			Seq:  s.seq.Load(),
			Aux:  s.aux.Load(),
		}
		if s.ver.Load() != v1 || ev.Kind == 0 {
			continue // torn by a wrapping writer; drop it
		}
		out = append(out, ev)
	}
	return out
}

// RecoverySpan is one missing sequence number's lifecycle as the flight
// ring tells it: from the EvGapDetected that opened it to the EvRecovered
// or EvWriteOff that closed it.
type RecoverySpan struct {
	Exp, Seq uint64
	OpenedAt int64
	// ClosedAt is when the gap closed; 0 while it is open.
	ClosedAt int64
	// NAKs is the closing event's Aux: the NAKs the recovery or the
	// write-off took.
	NAKs uint64
	// Outcome is EvRecovered or EvWriteOff, or 0 when the ring holds no
	// resolution for the gap.
	Outcome EventKind
}

// RecoverySpans matches each gap-detected event to its resolution per
// sequence number and returns the spans in order of opening. A gap whose
// resolution the ring no longer holds (or that was still open) comes back
// with a zero Outcome.
func RecoverySpans(events []Event) []RecoverySpan {
	type key struct{ exp, seq uint64 }
	open := make(map[key]int) // index into out
	var out []RecoverySpan
	for _, ev := range events {
		switch ev.Kind {
		case EvGapDetected:
			// Seq..Aux is the contiguous missing run; track each seq.
			for seq := ev.Seq; seq <= max(ev.Aux, ev.Seq); seq++ {
				k := key{ev.Exp, seq}
				if _, dup := open[k]; dup {
					continue
				}
				open[k] = len(out)
				out = append(out, RecoverySpan{Exp: ev.Exp, Seq: seq, OpenedAt: ev.At})
			}
		case EvRecovered, EvWriteOff:
			if i, ok := open[key{ev.Exp, ev.Seq}]; ok && out[i].Outcome == 0 {
				out[i].ClosedAt, out[i].NAKs, out[i].Outcome = ev.At, ev.Aux, ev.Kind
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].OpenedAt < out[j].OpenedAt })
	return out
}
