package core

import (
	"time"

	"repro/internal/daq"
	"repro/internal/dmtp"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// SenderConfig configures an instrument-side DMTP source.
type SenderConfig struct {
	// Experiment is the 24-bit experiment number; the slice byte comes
	// from each DAQ record (Req 8).
	Experiment uint32
	// Dst is the next stage — normally the first-line DTN (DTN 1).
	Dst wire.Addr
	// Mode is the emission mode; sensors use ModeBare (paper §5.3: "DAQ
	// data starts out in mode 0 at the sensor").
	Mode Mode
	// RateMbps, when nonzero, paces emission with a token bucket instead
	// of sending at the workload's natural schedule.
	RateMbps uint32
	// DupGroup and DupScope populate the duplication extension when the
	// mode carries FeatDuplicate (alert distribution, Req 10).
	DupGroup uint32
	DupScope uint8
	// DeadlineBudget populates the timeliness extension when the mode
	// carries FeatTimely: deadline = emission time + budget.
	DeadlineBudget time.Duration
	// DeadlineNotify is where deadline violations are reported.
	DeadlineNotify wire.Addr
	// RecoverInterval is how often a back-pressured sender doubles its
	// rate back toward unpaced; zero means 10 ms.
	RecoverInterval time.Duration
	// Recorder, when non-nil, receives back-pressure flight-recorder
	// events stamped with virtual time. Nil disables recording.
	Recorder *metrics.FlightRecorder
	// TraceSample, when positive, emits every TraceSample'th message with
	// a sampled FeatTraced extension (1 = trace everything). Zero disables
	// trace origination; unsampled messages carry no trace extension.
	TraceSample int
}

// SenderStats are cumulative sender counters.
type SenderStats struct {
	Sent         uint64
	SentBytes    uint64
	Queued       uint64 // messages that waited for pacing tokens
	BackPressure uint64 // signals received
	DeadlineMiss uint64 // deadline-exceeded notifications received
}

// Sender is the DAQ source endpoint (① in Fig. 3). It emits each workload
// record as one DMTP datagram (Req 7 — message abstraction) and reacts to
// back-pressure signals relayed by the network (paper §5.1).
// Encapsulation and pacing live in the dmtp sender engine (Encap +
// Pacer); this type adapts them to the simulator substrate.
type Sender struct {
	cfg  SenderConfig
	node *netsim.Node
	nw   *netsim.Network

	Stats SenderStats
	// Done is set once the workload source is exhausted and the queue is
	// drained.
	Done bool
	// OnDone, if non-nil, runs when the sender finishes.
	OnDone func()

	src   daq.Source
	enc   dmtp.Encap
	pacer *dmtp.Pacer
}

// NewSender creates a sender and registers its node on the network.
func NewSender(nw *netsim.Network, name string, addr wire.Addr, cfg SenderConfig) *Sender {
	if cfg.RecoverInterval == 0 {
		cfg.RecoverInterval = 10 * time.Millisecond
	}
	s := &Sender{cfg: cfg, nw: nw}
	s.enc = dmtp.Encap{
		ConfigID:       cfg.Mode.ConfigID,
		Features:       cfg.Mode.Features,
		Experiment:     cfg.Experiment,
		DupGroup:       cfg.DupGroup,
		DupScope:       cfg.DupScope,
		DeadlineBudget: cfg.DeadlineBudget,
		DeadlineNotify: cfg.DeadlineNotify,
		TraceSample:    cfg.TraceSample,
	}
	s.pacer = dmtp.NewPacer(loopClock{nw}, dmtp.PacerConfig{
		RateMbps:        cfg.RateMbps,
		RecoverInterval: cfg.RecoverInterval,
		Send:            s.sendNow,
		OnIdle:          s.maybeDone,
	})
	s.node = nw.AddNode(name, addr, s)
	return s
}

// Node returns the sender's network node.
func (s *Sender) Node() *netsim.Node { return s.node }

// RegisterMetrics publishes the sender's dmtp.tx.* counters on reg, so a
// simulator sender exports the same names a live one does (the live-only
// socket counters simply stay absent). The simulator loop is
// single-threaded: sample the registry from loop context or after the run
// has drained.
func (s *Sender) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterSet([]string{metrics.MetricTxSent, metrics.MetricTxSentBytes, metrics.MetricTxQueued,
		metrics.MetricTxBackPressure, metrics.MetricTxDeadlineMisses}, func(dst []int64) {
		st := s.Stats
		for i, v := range [...]uint64{st.Sent, st.SentBytes, st.Queued, st.BackPressure, st.DeadlineMiss} {
			dst[i] = int64(v)
		}
	})
}

// Attach implements netsim.Handler.
func (s *Sender) Attach(n *netsim.Node) {
	s.node = n
	// Back-pressure signals come home to the sender.
	s.enc.BackPressureSink = n.Addr
}

// HandleFrame implements netsim.Handler: the sensor receives only control
// traffic (back-pressure, deadline notifications).
func (s *Sender) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	v := wire.View(f.Data)
	if _, err := v.Check(); err != nil || !v.IsControl() {
		return
	}
	switch v.ConfigID() {
	case wire.ConfigBackPressure:
		sig, err := wire.DecodeBackPressure(f.Data)
		if err != nil {
			return
		}
		s.Stats.BackPressure++
		s.cfg.Recorder.RecordAt(int64(s.nw.Now()), metrics.EvBackPressure,
			uint64(sig.Experiment), 0, uint64(sig.Level))
		s.pacer.ApplyBackPressure(sig)
	case wire.ConfigDeadlineExceeded:
		if _, err := wire.DecodeDeadlineExceeded(f.Data); err == nil {
			s.Stats.DeadlineMiss++
		}
	}
}

// Stream schedules the whole workload source: each record is emitted at
// its generation time (or queued under pacing/back-pressure).
func (s *Sender) Stream(src daq.Source) {
	s.src = src
	s.scheduleNext()
}

func (s *Sender) scheduleNext() {
	rec, ok := s.src.Next()
	if !ok {
		s.src = nil
		s.maybeDone()
		return
	}
	at := sim.Time(rec.At)
	if at < s.nw.Now() {
		at = s.nw.Now()
	}
	s.nw.Loop().At(at, func() {
		s.Emit(rec.Data, rec.Slice)
		s.scheduleNext()
	})
}

// Emit sends one DAQ message now (or queues it under pacing).
func (s *Sender) Emit(msg []byte, slice uint8) {
	pkt, err := s.enc.AppendPacket(nil, int64(s.nw.Now()), msg, slice)
	if err != nil {
		panic(err) // modes are validated at construction
	}
	if s.pacer.Submit(pkt) {
		s.Stats.Queued++
	}
}

func (s *Sender) sendNow(pkt []byte) {
	s.node.SendTo(s.cfg.Dst, pkt)
	s.Stats.Sent++
	s.Stats.SentBytes += uint64(len(pkt))
}

func (s *Sender) maybeDone() {
	if s.src == nil && s.pacer.Idle() && !s.Done {
		s.Done = true
		if s.OnDone != nil {
			s.OnDone()
		}
	}
}
