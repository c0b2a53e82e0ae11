package dmtp

import (
	"time"

	"repro/internal/wire"
)

// Encap builds the wire packets a DMTP source emits: one datagram per
// DAQ message, in the configured mode. It is the sender engine's
// stateless half; both substrates encapsulate through it.
type Encap struct {
	// ConfigID and Features are the emission mode (sensors use mode 0).
	ConfigID uint8
	Features wire.Features
	// Experiment is the 24-bit experiment number; the slice byte comes
	// from each DAQ record (Req 8).
	Experiment uint32
	// DupGroup and DupScope populate the duplication extension when the
	// mode carries FeatDuplicate (alert distribution, Req 10).
	DupGroup uint32
	DupScope uint8
	// BackPressureSink is where congestion signals come home to when
	// the mode carries FeatBackPressure (normally the sender itself).
	BackPressureSink wire.Addr
	// DeadlineBudget populates the timeliness extension when the mode
	// carries FeatTimely: deadline = emission time + budget.
	DeadlineBudget time.Duration
	// DeadlineNotify is where deadline violations are reported.
	DeadlineNotify wire.Addr
	// TraceSample enables in-band tracing at origination: every
	// TraceSample'th message (1 = every message) is emitted with a sampled
	// FeatTraced extension, stamped with the tx hop and a trace ID equal
	// to the message's ordinal. 0 disables origination; unsampled messages
	// carry no trace extension at all and pay nothing.
	TraceSample int

	// msgN counts encapsulated messages, driving the sampling decision
	// and trace-ID assignment deterministically on both substrates.
	msgN uint64
}

// NextTraced reports whether the next AppendPacket originates a sampled
// trace. A substrate whose clock costs a call (the live sender's mode 0
// uses nowNanos for nothing else) can skip reading it for every other
// message.
func (e *Encap) NextTraced() bool {
	return e.TraceSample > 0 && (e.msgN+1)%uint64(e.TraceSample) == 0
}

// AppendPacket appends the encoded packet for msg to dst (allocating a
// right-sized buffer when dst is nil) and returns the result. The fast
// path reuses dst's capacity, so steady-state senders allocate nothing.
func (e *Encap) AppendPacket(dst []byte, nowNanos int64, msg []byte, slice uint8) ([]byte, error) {
	h := wire.Header{
		ConfigID:   e.ConfigID,
		Features:   e.Features,
		Experiment: wire.NewExperimentID(e.Experiment, slice),
	}
	if h.Features.Has(wire.FeatTimestamped) {
		h.Timestamp.OriginNanos = uint64(nowNanos)
	}
	if h.Features.Has(wire.FeatDuplicate) {
		h.Dup = wire.DupExt{Group: e.DupGroup, Scope: e.DupScope}
	}
	if h.Features.Has(wire.FeatBackPressure) {
		h.BackPressure.Sink = e.BackPressureSink
	}
	if h.Features.Has(wire.FeatTimely) && e.DeadlineBudget > 0 {
		h.Deadline = wire.DeadlineExt{
			DeadlineNanos: uint64(nowNanos) + uint64(e.DeadlineBudget),
			Notify:        e.DeadlineNotify,
		}
	}
	traced := e.NextTraced()
	e.msgN++
	if traced {
		h.Features |= wire.FeatTraced
		h.Trace = wire.TraceExt{
			TraceID:      uint32(e.msgN),
			Flags:        wire.TraceSampledFlag,
			HopCount:     1,
			OriginConfig: e.ConfigID,
		}
		h.Trace.Hops[0] = wire.TraceHop{Hop: wire.TraceHopTx, Stamp: uint64(nowNanos) & wire.TraceStampMask}
	}
	if dst == nil {
		dst = make([]byte, 0, h.WireSize()+len(msg))
	}
	pkt, err := h.AppendTo(dst)
	if err != nil {
		return nil, err
	}
	return append(pkt, msg...), nil
}

// PacerConfig configures a Pacer.
type PacerConfig struct {
	// RateMbps, when nonzero, paces emission with a token bucket
	// instead of sending at the submission schedule.
	RateMbps uint32
	// RecoverInterval is how often a back-pressured pacer doubles its
	// rate back toward the configured behaviour.
	RecoverInterval time.Duration
	// Send transmits one packet now. Ownership of pkt transfers.
	Send func(pkt []byte)
	// OnIdle, if non-nil, runs whenever a drain leaves the queue empty
	// (the adapter's completion hook).
	OnIdle func()
}

// Pacer is the sender engine's stateful half: a token-bucket emission
// governor that also reacts to back-pressure signals (halve or pin the
// rate, pause on level 255, recover by periodic doubling — paper §5.1).
// Substrate-agnostic: timers come from the Clock, transmission from the
// Send hook. Not self-synchronizing; the adapter serializes access.
type Pacer struct {
	cfg   PacerConfig
	clock Clock

	rateMbps   uint32 // current rate; 0 = unpaced
	paused     bool
	tokens     float64 // bytes
	lastRefill int64
	pending    [][]byte
	drainTimer Timer
	recover    Timer
}

// NewPacer builds a pacer over the given clock.
func NewPacer(clock Clock, cfg PacerConfig) *Pacer {
	if cfg.RecoverInterval == 0 {
		cfg.RecoverInterval = 10 * time.Millisecond
	}
	return &Pacer{cfg: cfg, clock: clock, rateMbps: cfg.RateMbps}
}

// Idle reports whether the backlog is empty.
func (p *Pacer) Idle() bool { return len(p.pending) == 0 }

// Submit emits pkt now when unpaced and unobstructed, or queues it
// behind the token bucket / pause state. It reports whether the packet
// was queued (the adapter's Queued counter).
func (p *Pacer) Submit(pkt []byte) (queued bool) {
	if p.rateMbps == 0 && !p.paused && len(p.pending) == 0 {
		p.cfg.Send(pkt)
		return false
	}
	p.pending = append(p.pending, pkt)
	p.kickDrain()
	return true
}

// ApplyBackPressure reacts to one congestion signal: level 0 restores
// the configured rate, a rate hint pins the rate, otherwise the rate
// halves; level 255 pauses emission entirely. Recovery is scheduled to
// double the rate each RecoverInterval until back to configured.
func (p *Pacer) ApplyBackPressure(sig *wire.BackPressureSignal) {
	if sig.Level == 0 {
		p.paused = false
		p.rateMbps = p.cfg.RateMbps
		p.kickDrain()
		return
	}
	switch {
	case sig.RateHintMbps > 0:
		p.rateMbps = sig.RateHintMbps
	case p.rateMbps > 0:
		p.rateMbps /= 2
		if p.rateMbps == 0 {
			p.rateMbps = 1
		}
	default:
		// Unpaced sender with no hint: halve from link-ish speed.
		p.rateMbps = 1000
	}
	if sig.Level == 255 {
		p.paused = true
	}
	// Schedule gradual recovery: double the rate periodically until back
	// to the configured behaviour.
	if p.recover != nil {
		p.recover.Stop()
	}
	p.recover = p.clock.Schedule(p.clock.Now()+int64(p.cfg.RecoverInterval), p.recoverStep)
}

func (p *Pacer) recoverStep() {
	p.recover = nil
	p.paused = false
	if p.cfg.RateMbps == 0 && p.rateMbps >= 100_000 {
		p.rateMbps = 0 // fully recovered to unpaced
	} else if p.cfg.RateMbps != 0 && p.rateMbps >= p.cfg.RateMbps {
		p.rateMbps = p.cfg.RateMbps
	} else {
		p.rateMbps *= 2
		p.recover = p.clock.Schedule(p.clock.Now()+int64(p.cfg.RecoverInterval), p.recoverStep)
	}
	p.kickDrain()
}

// kickDrain drains the backlog unless a drain is already scheduled.
func (p *Pacer) kickDrain() {
	if p.drainTimer != nil {
		return // drain already scheduled
	}
	p.drain()
}

func (p *Pacer) drain() {
	p.drainTimer = nil
	if p.paused {
		return // resumed by a recovery step or a clear signal
	}
	now := p.clock.Now()
	if p.rateMbps > 0 {
		elapsed := time.Duration(now - p.lastRefill)
		p.tokens += float64(p.rateMbps) * 1e6 / 8 * elapsed.Seconds()
		burst := float64(p.rateMbps) * 1e6 / 8 * 0.001 // 1 ms of burst
		if burst < 64<<10 {
			burst = 64 << 10
		}
		if p.tokens > burst {
			p.tokens = burst
		}
	}
	p.lastRefill = now
	for len(p.pending) > 0 {
		pkt := p.pending[0]
		if p.rateMbps > 0 && p.tokens < float64(len(pkt)) {
			// Sleep until enough tokens accumulate.
			need := float64(len(pkt)) - p.tokens
			wait := time.Duration(need / (float64(p.rateMbps) * 1e6 / 8) * float64(time.Second))
			if wait <= 0 {
				wait = time.Microsecond
			}
			p.drainTimer = p.clock.Schedule(now+int64(wait), p.drain)
			return
		}
		if p.rateMbps > 0 {
			p.tokens -= float64(len(pkt))
		}
		p.pending = p.pending[1:]
		p.cfg.Send(pkt)
	}
	if p.cfg.OnIdle != nil {
		p.cfg.OnIdle()
	}
}
