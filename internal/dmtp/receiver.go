package dmtp

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// Message is one delivered DAQ message with transport-level metadata.
// Both substrates deliver this exact type (internal/core and
// internal/live alias it).
type Message struct {
	Experiment wire.ExperimentID
	Seq        uint64 // 0 when the stream is unsequenced
	// Payload is a view of the packet the message arrived in (a payload
	// opened by ReceiverConfig.Cipher is the one copy). It is valid until
	// the delivery callback returns; a caller that keeps it clones it.
	Payload []byte
	// Latency is the time from the origin timestamp to the engine-clock
	// reading that ingested the packet, or -1 without an origin timestamp.
	// The live receiver reads its clock once per socket read, so there this
	// is origin → the read that delivered the packet, earlier than the
	// callback by the time the read's earlier datagrams took to ingest and
	// deliver. Aged and Late are judged
	// against the same reading.
	Latency time.Duration
	// Aged reports the in-network age flag.
	Aged bool
	// Late reports a missed delivery deadline, checked at the
	// destination (pilot mode 3).
	Late bool
	// Recovered marks messages restored via NAK retransmission.
	Recovered bool
}

// ReceiverStats are cumulative receiver-engine counters.
type ReceiverStats struct {
	Received    uint64
	Bytes       uint64
	Delivered   uint64
	Duplicates  uint64
	GapsSeen    uint64
	NAKsSent    uint64
	Recovered   uint64
	Lost        uint64 // given up after MaxNAKs
	Aged        uint64
	Late        uint64
	Unsequenced uint64
	// Rejected counts packets discarded by the MaxSeqJump corruption
	// guard: their sequence field jumped implausibly far ahead. Climbing
	// while Delivered stands still, it means the window has lost the
	// stream's baseline and resync (see resyncRun) is not restoring it.
	Rejected uint64
	// Malformed counts datagrams the adapter could not read: they failed
	// View.Check and never reached Ingest (CountMalformed).
	Malformed uint64
}

// DefaultMaxSeqJump is the forward sequence jump a receiver accepts from
// a single packet when ReceiverConfig.MaxSeqJump is zero. Real streams
// gap by at most a few thousand sequences (rate × recovery window); a
// corrupted sequence field gaps by up to 2^63.
const DefaultMaxSeqJump = 1 << 20

// maxNAKRanges caps the ranges in one NAK so the packet fits an
// unfragmented datagram at a 1500-byte MTU: 8 (core header) + 10 (fixed
// body) + 16·90 = 1458 ≤ 1472. A fire with more due ranges sends several.
const maxNAKRanges = 90

// resyncRun is how many consecutive packets the MaxSeqJump guard must
// reject, each above the last and all within MaxSeqJump of the first,
// before the stream is re-based below the first: one corrupted sequence
// field is still dropped, a receiver that joined (or fell) more than
// MaxSeqJump behind a running stream catches up after resyncRun packets.
const resyncRun = 8

// ReceiverConfig configures a ReceiverEngine. NAKDelay and NAKRetry have
// no engine default: adapters apply their own substrate's (the
// simulator's reorder tolerance is hundreds of microseconds, the live
// path's is milliseconds) before construction.
type ReceiverConfig struct {
	// NAKDelay is the reorder tolerance: how long after detecting a gap
	// the first NAK is sent.
	NAKDelay time.Duration
	// NAKRetry is the retransmission-request timeout; it should cover
	// the round trip to the nearest buffer. Retries back off
	// exponentially with seeded jitter, capped at NAKRetryMax.
	NAKRetry time.Duration
	// NAKRetryMax caps the exponential backoff between retries; zero
	// means 500 ms. Without the cap a large MaxNAKs overflows the shift
	// into a sub-tick spin.
	NAKRetryMax time.Duration
	// MaxNAKs bounds recovery attempts per sequence number before the
	// packet is declared lost; zero means 5.
	MaxNAKs int
	// Seed drives the retry jitter, for deterministic tests.
	Seed int64
	// MaxSeqJump bounds the forward sequence jump accepted from a single
	// packet. The gap tracker materialises per-sequence recovery state
	// for every number between maxSeen and an arriving seq, so one
	// corrupted sequence field could otherwise demand ~2^63 entries.
	// Packets jumping further are dropped and counted as Rejected, until
	// resyncRun of them in a row look like the stream itself. Zero means
	// DefaultMaxSeqJump.
	MaxSeqJump uint64
	// AckInterval, when nonzero, emits cumulative ACKs to the buffer so
	// it can trim acknowledged packets.
	AckInterval time.Duration
	// Ordered buffers sequenced messages and delivers them in sequence
	// order instead of on arrival (the head-of-line-blocking ablation).
	// Parked messages are held across Ingest calls, so the substrate's
	// frames must be immutable: the simulator's are, the live adapter's
	// receive ring is not and never sets it.
	Ordered bool
	// OnGap reports each sequence number written off as permanently
	// lost after MaxNAKs — the deliver-with-gap degradation signal.
	OnGap func(exp wire.ExperimentID, seq uint64)
	// OnNAK observes every NAK the engine emits (after it was handed to
	// the datapath); the conformance suite records these.
	OnNAK func(exp wire.ExperimentID, ranges []wire.SeqRange)
	// Counters, when non-nil, records recoveries and permanent losses
	// (normally shared with a faults.Plan's counter set).
	Counters *telemetry.CounterSet
	// Cipher, when non-nil, opens every payload that carries a cipher
	// extension: the message gets a decrypted copy. Any other payload
	// aliases the ingested packet, which the adapter must keep intact
	// until Deliver's message has been handed to the application.
	Cipher Cipher
	// Deliver hands each finalized message to the adapter. Called
	// synchronously from Ingest and timer fires; adapters that must not
	// run application callbacks under their own locks queue here.
	Deliver func(m Message)
	// Stats, when non-nil, is where the engine counts; adapters expose
	// it as their own stats field. Nil allocates a private struct.
	Stats *ReceiverStats
	// LatencyHist, RecoveryHist and OrderedHOL, when non-nil, record
	// origin→delivery latency, gap-detection→recovery latency, and
	// ordered-delivery head-of-line wait.
	LatencyHist  *telemetry.Histogram
	RecoveryHist *telemetry.Histogram
	OrderedHOL   *telemetry.Histogram
	// Recorder, when non-nil, receives flight-recorder events
	// (gap-detected, nak-sent, recovered, write-off) stamped with the
	// engine clock. Recording is lock- and allocation-free; nil disables
	// it entirely.
	Recorder *metrics.FlightRecorder
	// Tracer, when non-nil, receives one tracespan.Delivery per sampled
	// traced message at delivery — the receiver's "delivery stamp".
	// Untraced and sampled-out messages never touch it, preserving the
	// zero-allocation, zero-atomics datapath.
	Tracer *tracespan.Collector
}

// rxGap is the recovery state of one missing sequence number.
type rxGap struct {
	seq      uint64
	detected int64
	naks     int
	nextNAK  int64
}

// rxStream is one experiment's receive window. maxSeen and the gap list
// are all it knows about individual sequence numbers: a number ≤ maxSeen
// has arrived or been written off exactly when it is not in the list. An
// in-order packet moves maxSeen and touches nothing else.
type rxStream struct {
	exp     wire.ExperimentID
	maxSeen uint64
	// gaps[head:] are the open gaps in ascending sequence order: a gap is
	// born above every older one, and closing the oldest advances head.
	gaps     []rxGap
	head     int
	buffer   wire.Addr // most recent retransmission-buffer pointer
	timer    Timer
	timerAt  int64
	ackTimer Timer
	ackArmed bool
	// fireNAK and fireAck are the stream's timer callbacks, bound once so
	// that arming a timer allocates nothing.
	fireNAK, fireAck func()
	// lastActivity gates the ack cycle's idle shutdown.
	lastActivity int64
	// Ordered-delivery state: messages awaiting their turn and the next
	// sequence number to hand to the application.
	pending     map[uint64]pendingRx
	nextDeliver uint64
	// The current run of consecutive MaxSeqJump rejections (see resyncRun).
	runFirst, runLast uint64
	runLen            int
}

// floor is the cumulative-ACK point: all of 1..floor arrived or was written off.
func (st *rxStream) floor() uint64 {
	if st.head < len(st.gaps) {
		return st.gaps[st.head].seq - 1
	}
	return st.maxSeen
}

// openGap appends g, which lies above every open gap. The dead prefix
// below head is reclaimed only once it is half a full slice, so a steady
// window neither grows nor copies per packet.
func (st *rxStream) openGap(g rxGap) {
	if len(st.gaps) == cap(st.gaps) && st.head*2 >= len(st.gaps) {
		st.gaps = st.gaps[:copy(st.gaps, st.gaps[st.head:])]
		st.head = 0
	}
	st.gaps = append(st.gaps, g)
}

// closeGap removes and returns seq's gap, if it has one.
func (st *rxStream) closeGap(seq uint64) (g rxGap, ok bool) {
	open := st.gaps[st.head:]
	i := sort.Search(len(open), func(i int) bool { return open[i].seq >= seq })
	if i == len(open) || open[i].seq != seq {
		return rxGap{}, false
	}
	g = open[i]
	if i == 0 {
		st.head++
	} else {
		st.gaps = append(st.gaps[:st.head+i], open[i+1:]...)
	}
	return g, true
}

func (st *rxStream) stopNAKTimer() {
	if st.timer != nil {
		st.timer.Stop()
		st.timer = nil
	}
}

type pendingRx struct {
	msg     Message
	arrived int64
}

// ReceiverEngine is the downstream DMTP protocol state machine: it
// delivers messages, detects loss from sequence gaps, schedules NAKs to
// the nearest upstream buffer with capped jittered exponential backoff,
// writes gaps off as permanent loss after MaxNAKs, and performs the
// destination timeliness check. It is substrate-agnostic: internal/core
// drives it from the simulator, internal/live from UDP sockets. Per stream
// it keeps one receive window (rxStream); ingest costs the same however
// many gaps are open, and only a NAK-timer fire walks them.
//
// The engine is not self-synchronizing: the adapter must serialize
// Ingest, timer fires (via its Clock), and every accessor.
type ReceiverEngine struct {
	cfg   ReceiverConfig
	clock Clock
	dp    Datapath
	self  wire.Addr
	rng   *rand.Rand // retry jitter
	stats *ReceiverStats

	streams map[wire.ExperimentID]*rxStream
	due     []uint64 // seqs NAKed by the current fire, reused across fires
}

// NewReceiverEngine builds an engine over the given substrate contracts.
func NewReceiverEngine(clock Clock, dp Datapath, cfg ReceiverConfig) *ReceiverEngine {
	stats := cfg.Stats
	if stats == nil {
		stats = &ReceiverStats{}
	}
	if cfg.NAKRetryMax == 0 {
		cfg.NAKRetryMax = 500 * time.Millisecond
	}
	if cfg.MaxNAKs == 0 {
		cfg.MaxNAKs = 5
	}
	if cfg.MaxSeqJump == 0 {
		cfg.MaxSeqJump = DefaultMaxSeqJump
	}
	return &ReceiverEngine{
		cfg:     cfg,
		clock:   clock,
		dp:      dp,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		stats:   stats,
		streams: make(map[wire.ExperimentID]*rxStream),
	}
}

// SetSelf installs the engine's own address — the NAK requester and ack
// acker field. Adapters call it once bound (socket) or attached (node).
func (e *ReceiverEngine) SetSelf(a wire.Addr) { e.self = a }

// CountMalformed counts one datagram that failed View.Check, which the
// adapter drops before Ingest.
func (e *ReceiverEngine) CountMalformed() { e.stats.Malformed++ }

// Stats returns a snapshot of the engine counters.
func (e *ReceiverEngine) Stats() ReceiverStats { return *e.stats }

// OutstandingGaps returns the number of sequence numbers currently
// awaiting recovery across all streams.
func (e *ReceiverEngine) OutstandingGaps() int {
	n := 0
	for _, st := range e.streams {
		n += len(st.gaps) - st.head
	}
	return n
}

// Stop cancels every pending engine timer.
func (e *ReceiverEngine) Stop() {
	for _, st := range e.streams {
		st.stopNAKTimer()
		if st.ackTimer != nil {
			st.ackTimer.Stop()
			st.ackTimer = nil
			st.ackArmed = false
		}
	}
}

// Ingest processes one validated data packet: the adapter has already run
// wire.View.Check and filtered control traffic, so the packet's layout is
// resolved once and every field is read at its offset unchecked.
func (e *ReceiverEngine) Ingest(v wire.View) {
	now := e.clock.Now()
	e.stats.Received++
	e.stats.Bytes += uint64(len(v))
	l := v.Layout()
	exp := v.Experiment()

	msg := Message{Experiment: exp, Latency: -1}
	if origin, ok := l.OriginTimestamp(v); ok && origin > 0 {
		msg.Latency = time.Duration(uint64(now) - origin)
		if e.cfg.LatencyHist != nil {
			e.cfg.LatencyHist.ObserveDuration(msg.Latency)
		}
	}
	if age, ok := l.Age(v); ok {
		aged := age.Aged()
		// Destination timeliness check (pilot mode 3): the receiver
		// recomputes the final age from the origin timestamp, so a budget
		// blown on the last segment is caught even though no network
		// element sits there to update the field.
		if !aged && age.MaxAgeMicros > 0 && msg.Latency >= 0 &&
			uint64(msg.Latency/time.Microsecond) >= uint64(age.MaxAgeMicros) {
			aged = true
		}
		if aged {
			msg.Aged = true
			e.stats.Aged++
		}
	}
	if deadline, ok := l.Deadline(v); ok && deadline != 0 && uint64(now) > deadline {
		msg.Late = true
		e.stats.Late++
	}

	seq, ok := l.Seq(v)
	if !ok || seq == 0 {
		e.stats.Unsequenced++
		e.observeTrace(v, msg, now, 0, 0)
		e.handOver(e.finalize(v, l, msg))
		return
	}
	msg.Seq = seq

	st := e.stream(exp, now)
	if seq > st.maxSeen && seq-st.maxSeen > e.cfg.MaxSeqJump && !e.resync(st, seq, now) {
		// A forward jump this large is a corrupted sequence field, not
		// real traffic: accepting it would materialise recovery state
		// for every sequence in between. Reject the packet outright;
		// if it was genuine, its NAKed retransmission will arrive with
		// the stream caught up — or, if the stream itself is that far
		// ahead, the next resyncRun packets will re-base the window.
		e.stats.Rejected++
		return
	}
	st.runLen = 0
	if buf, ok := l.RetransmitBuffer(v); ok && !buf.IsZero() {
		st.buffer = buf
	}
	var rec rxGap // the gap this packet closed after ≥1 NAK, for the trace
	if seq > st.maxSeen {
		if first := max(st.maxSeen, st.floor()+GapFloorBias) + 1; first < seq {
			for s := first; s < seq; s++ {
				st.openGap(rxGap{seq: s, detected: now, nextNAK: now + int64(e.cfg.NAKDelay)})
			}
			e.stats.GapsSeen += seq - first
			e.cfg.Recorder.RecordAt(now, metrics.EvGapDetected, uint64(exp), first, seq-1)
			e.armTimer(st, now+int64(e.cfg.NAKDelay))
		}
		st.maxSeen = seq
	} else {
		g, wasMissing := st.closeGap(seq)
		if !wasMissing {
			e.stats.Duplicates++
			return
		}
		if st.head == len(st.gaps) {
			st.stopNAKTimer()
		}
		// Only arrivals that needed a NAK count as recovered; a packet
		// that shows up before the first NAK fires was merely reordered,
		// not lost.
		if g.naks > 0 {
			msg.Recovered = true
			rec = g
			e.stats.Recovered++
			e.cfg.Counters.Inc(telemetry.CounterRecovered)
			e.cfg.Recorder.RecordAt(now, metrics.EvRecovered, uint64(exp), seq, uint64(g.naks))
			if e.cfg.RecoveryHist != nil {
				e.cfg.RecoveryHist.ObserveDuration(time.Duration(now - g.detected))
			}
		}
	}
	e.observeTrace(v, msg, now, rec.detected, rec.naks)
	if e.cfg.Ordered {
		st.pending[seq] = pendingRx{msg: e.finalize(v, l, msg), arrived: now}
		e.flushOrdered(st, now)
		return
	}
	e.handOver(e.finalize(v, l, msg))
}

// observeTrace records a sampled traced message's delivery with the span
// collector. The sampled-flag check is the entire cost for untraced and
// sampled-out packets: no allocation, no atomics, no collector lock.
func (e *ReceiverEngine) observeTrace(v wire.View, msg Message, now, detected int64, naks int) {
	if e.cfg.Tracer == nil || !v.TraceSampled() {
		return
	}
	t, err := v.Trace()
	if err != nil {
		return
	}
	e.cfg.Tracer.Observe(tracespan.Delivery{
		Trace:      t,
		Exp:        msg.Experiment,
		Seq:        msg.Seq,
		ConfigID:   v.ConfigID(),
		At:         now,
		Recovered:  msg.Recovered,
		DetectedAt: detected,
		NAKs:       naks,
	})
}

// finalize extracts the payload of v, whose layout is l, and completes the
// message.
func (e *ReceiverEngine) finalize(v wire.View, l *wire.Layout, msg Message) Message {
	msg.Payload = v[l.HeaderLen():]
	if e.cfg.Cipher != nil {
		if ext, err := v.Cipher(); err == nil {
			msg.Payload = append([]byte(nil), msg.Payload...)
			e.cfg.Cipher.Open(ext.KeyEpoch, ext.Nonce, msg.Payload)
		}
	}
	return msg
}

// handOver delivers a finalized message to the adapter.
func (e *ReceiverEngine) handOver(msg Message) {
	e.stats.Delivered++
	if e.cfg.Deliver != nil {
		e.cfg.Deliver(msg)
	}
}

// flushOrdered hands over every pending message whose turn has come,
// skipping sequence numbers that were written off as lost.
func (e *ReceiverEngine) flushOrdered(st *rxStream, now int64) {
	for st.nextDeliver <= st.maxSeen {
		if pm, ok := st.pending[st.nextDeliver]; ok {
			delete(st.pending, st.nextDeliver)
			if e.cfg.OrderedHOL != nil {
				e.cfg.OrderedHOL.ObserveDuration(time.Duration(now - pm.arrived))
			}
			e.handOver(pm.msg)
			st.nextDeliver++
			continue
		}
		if st.nextDeliver <= st.floor() {
			st.nextDeliver++ // written off as lost; skip its slot
			continue
		}
		return // still awaiting recovery
	}
}

func (e *ReceiverEngine) stream(exp wire.ExperimentID, now int64) *rxStream {
	st, ok := e.streams[exp]
	if !ok {
		st = &rxStream{
			exp:         exp,
			pending:     make(map[uint64]pendingRx),
			nextDeliver: 1,
		}
		st.fireNAK = func() {
			st.timer = nil
			e.fireNAKs(st)
		}
		st.fireAck = func() { e.fireAcks(st) }
		e.streams[exp] = st
	}
	st.lastActivity = now
	if e.cfg.AckInterval > 0 && !st.ackArmed {
		st.ackArmed = true
		e.scheduleAck(st)
	}
	return st
}

// resync extends the run of rejected packets with seq and reports whether
// the run is now long enough to be the stream itself rather than
// corruption. If so it re-bases the window just below the run's first
// number: open gaps are written off, the run's own rejected packets become
// ordinary gaps when the caller goes on to ingest seq, and NAKs fetch them.
func (e *ReceiverEngine) resync(st *rxStream, seq uint64, now int64) bool {
	if st.runLen == 0 || seq <= st.runLast || seq-st.runFirst > e.cfg.MaxSeqJump {
		st.runFirst, st.runLen = seq, 0
	}
	st.runLast = seq
	if st.runLen++; st.runLen < resyncRun {
		return false
	}
	for _, g := range st.gaps[st.head:] {
		e.writeOff(st, g, now)
	}
	st.gaps, st.head = st.gaps[:0], 0
	st.stopNAKTimer()
	if e.cfg.Ordered {
		e.flushOrdered(st, now) // hand over what the written-off gaps held back
		st.nextDeliver = st.runFirst
	}
	st.maxSeen = st.runFirst - 1
	return true
}

// writeOff gives up on g: it is counted as lost and no longer tracked, so
// delivery degrades to deliver-with-gap instead of NAKing forever.
func (e *ReceiverEngine) writeOff(st *rxStream, g rxGap, now int64) {
	e.stats.Lost++
	e.cfg.Counters.Inc(telemetry.CounterPermanentLoss)
	e.cfg.Recorder.RecordAt(now, metrics.EvWriteOff, uint64(st.exp), g.seq, uint64(g.naks))
	if e.cfg.OnGap != nil {
		e.cfg.OnGap(st.exp, g.seq)
	}
}

// armTimer schedules the NAK timer for at unless one is pending no later:
// a timer that comes due early costs one sweep, which re-arms it.
func (e *ReceiverEngine) armTimer(st *rxStream, at int64) {
	if st.timer != nil {
		if st.timerAt <= at {
			return
		}
		st.timer.Stop()
	}
	if now := e.clock.Now(); at < now {
		at = now
	}
	st.timerAt = at
	st.timer = e.clock.Schedule(at, st.fireNAK)
}

// fireNAKs retries or writes off every due gap, NAKs the batch in packets
// of at most maxNAKRanges ranges and re-arms for the earliest deadline
// left. The gap list is in ascending sequence order, so jitter draws,
// write-off notifications and the resulting ranges are identical for
// identical histories — the property the conformance suite checks.
func (e *ReceiverEngine) fireNAKs(st *rxStream) {
	now := e.clock.Now()
	e.due = e.due[:0]
	open := st.gaps[st.head:]
	kept := open[:0]
	var next int64
	for _, g := range open {
		if g.nextNAK <= now {
			if g.naks >= e.cfg.MaxNAKs {
				e.writeOff(st, g, now)
				continue
			}
			e.due = append(e.due, g.seq)
			g.naks++
			g.nextNAK = now + int64(e.retryBackoff(g.naks))
		}
		if len(kept) == 0 || g.nextNAK < next {
			next = g.nextNAK
		}
		kept = append(kept, g)
	}
	st.gaps = st.gaps[:st.head+len(kept)]
	if e.cfg.Ordered {
		e.flushOrdered(st, now) // written-off slots unblock ordered delivery
	}
	if !st.buffer.IsZero() {
		for ranges := ToRanges(e.due); len(ranges) > 0; {
			nak := wire.NAK{
				Experiment: st.exp,
				Requester:  e.self,
				Ranges:     ranges[:min(len(ranges), maxNAKRanges)],
			}
			ranges = ranges[len(nak.Ranges):]
			if data, err := nak.AppendTo(nil); err == nil {
				e.dp.SendControl(st.buffer, data)
				e.stats.NAKsSent++
				e.cfg.Recorder.RecordAt(now, metrics.EvNAKSent, uint64(st.exp), nak.Ranges[0].From, nak.TotalMissing())
				if e.cfg.OnNAK != nil {
					e.cfg.OnNAK(st.exp, nak.Ranges)
				}
			}
		}
	}
	if len(kept) > 0 {
		e.armTimer(st, next)
	}
}

// retryBackoff returns the backoff before retry n (1-based): base·2^(n-1)
// clamped to NAKRetryMax, then jittered uniformly in [½, 1½)× so
// synchronized gaps — e.g. many receivers losing the same burst — don't
// NAK in lockstep. The clamp matters: an unclamped shift overflows
// time.Duration once MaxNAKs exceeds ~40, degenerating into a sub-tick
// retry spin on permanently lost packets.
func (e *ReceiverEngine) retryBackoff(n int) time.Duration {
	shift := n - 1
	if shift > 20 {
		shift = 20
	}
	b := e.cfg.NAKRetry << shift
	if b <= 0 || b > e.cfg.NAKRetryMax {
		b = e.cfg.NAKRetryMax
	}
	return b/2 + time.Duration(e.rng.Int63n(int64(b)))
}

func (e *ReceiverEngine) scheduleAck(st *rxStream) {
	st.ackTimer = e.clock.Schedule(e.clock.Now()+int64(e.cfg.AckInterval), st.fireAck)
}

// fireAcks is the stream's ACK timer: a cumulative ACK to its buffer, then
// the next arming unless the stream has gone idle.
func (e *ReceiverEngine) fireAcks(st *rxStream) {
	st.ackTimer = nil
	if floor := st.floor(); floor > 0 && !st.buffer.IsZero() {
		ack := wire.Ack{Experiment: st.exp, CumulativeSeq: floor, Acker: e.self}
		// The one allocation per ACK: SendControl takes ownership.
		if data, err := ack.AppendTo(nil); err == nil {
			e.dp.SendControl(st.buffer, data)
		}
	}
	// Stop re-arming once the stream has gone idle, so simulations
	// drain; the next arriving packet re-arms the cycle.
	if e.clock.Now()-st.lastActivity > 4*int64(e.cfg.AckInterval) {
		st.ackArmed = false
		return
	}
	e.scheduleAck(st)
}
