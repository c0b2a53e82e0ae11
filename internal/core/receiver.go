package core

import (
	"time"

	"repro/internal/dmtp"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// ReceiverConfig configures a destination DTN (DTN 2 in Fig. 4).
type ReceiverConfig struct {
	// NAKDelay is the reorder tolerance: how long after detecting a gap
	// the first NAK is sent. Zero means 500 µs.
	NAKDelay time.Duration
	// NAKRetry is the retransmission-request timeout; it should cover the
	// round trip to the nearest buffer. Zero means 5 ms. Retries back off
	// exponentially with seeded jitter, capped at NAKRetryMax.
	NAKRetry time.Duration
	// NAKRetryMax caps the exponential backoff between retries; zero
	// means 500 ms. Without the cap a large MaxNAKs overflows the shift
	// into a sub-tick retry spin.
	NAKRetryMax time.Duration
	// MaxNAKs bounds recovery attempts per sequence number before the
	// packet is declared lost. Zero means 5.
	MaxNAKs int
	// Seed drives the NAK retry jitter. Multi-receiver simulations give
	// each receiver its own seed so synchronized gaps don't NAK in
	// lockstep (the live path always jittered; the engine unifies it).
	Seed int64
	// MaxSeqJump bounds the forward sequence jump accepted from a single
	// packet (corruption guard); zero means dmtp.DefaultMaxSeqJump.
	// Fault campaigns that flip header bits tighten this so a corrupted
	// sequence field cannot demand absurd gap state.
	MaxSeqJump uint64
	// OnGap reports each sequence number written off as permanently lost
	// after MaxNAKs — the deliver-with-gap degradation signal.
	OnGap func(exp wire.ExperimentID, seq uint64)
	// OnNAK, when non-nil, observes every NAK sent (experiment and
	// requested ranges); the conformance suite records these.
	OnNAK func(exp wire.ExperimentID, ranges []wire.SeqRange)
	// Counters, when non-nil, records recoveries and permanent losses
	// (normally shared with a faults.Plan's counter set).
	Counters *telemetry.CounterSet
	// AckInterval, when nonzero, emits cumulative ACKs to the buffer so
	// it can trim acknowledged packets.
	AckInterval time.Duration
	// Cipher decrypts FeatEncrypted payloads.
	Cipher Cipher
	// Ordered buffers sequenced messages and delivers them in sequence
	// order instead of on arrival. DMTP itself is message-based (Req 7);
	// this opt-in exists for consumers that genuinely need ordering and
	// for the head-of-line-blocking ablation, which shows the blocking
	// cost is a property of ordered delivery, not of TCP specifically.
	Ordered bool
	// OnMessage delivers each received DAQ message (decrypted payload).
	// DMTP is message-based: delivery is immediate and unordered; the
	// sequence machinery exists for completeness accounting and recovery,
	// not for imposing a bytestream order (Req 7, paper §4.1 on
	// head-of-line blocking).
	OnMessage func(m Message)
	// Recorder, when non-nil, receives the engine's flight-recorder
	// events stamped with virtual time. Nil disables flight recording.
	Recorder *metrics.FlightRecorder
	// Tracer, when non-nil, collects span records from sampled FeatTraced
	// deliveries. Untraced and sampled-out messages never touch it.
	Tracer *tracespan.Collector
}

// Message is one delivered DAQ message with transport-level metadata.
// It is the engine's message type; both substrates deliver it.
type Message = dmtp.Message

// ReceiverStats are cumulative receiver counters (the engine's).
type ReceiverStats = dmtp.ReceiverStats

// Receiver is the downstream DMTP endpoint: it delivers messages, detects
// loss from sequence gaps, recovers from the nearest upstream buffer via
// NAKs, and performs the destination timeliness check. The protocol state
// machine lives in dmtp.ReceiverEngine; this type adapts it to the
// simulator substrate (netsim frames in, virtual-time timers, loop-run
// delivery callbacks).
type Receiver struct {
	cfg  ReceiverConfig
	node *netsim.Node
	nw   *netsim.Network
	eng  *dmtp.ReceiverEngine

	Stats ReceiverStats
	// LatencyHist records origin→delivery latency.
	LatencyHist *telemetry.Histogram
	// RecoveryHist records gap-detection→recovery latency.
	RecoveryHist *telemetry.Histogram
	// DeliveredBytes counts delivered payload bytes (goodput).
	DeliveredBytes uint64
	// OrderedHOL records, for ordered delivery, how long each fully
	// received message waited behind earlier gaps.
	OrderedHOL *telemetry.Histogram
}

// NewReceiver creates a receiver and registers its node on the network.
func NewReceiver(nw *netsim.Network, name string, addr wire.Addr, cfg ReceiverConfig) *Receiver {
	r := NewReceiverHandler(nw, cfg)
	r.node = nw.AddNode(name, addr, r)
	return r
}

// NewReceiverHandler creates a receiver without registering a node, for
// callers that wrap it in a decorating handler (e.g. discovery.Wrap); the
// node is bound via Attach when the wrapper is registered.
func NewReceiverHandler(nw *netsim.Network, cfg ReceiverConfig) *Receiver {
	if cfg.NAKDelay == 0 {
		cfg.NAKDelay = 500 * time.Microsecond
	}
	if cfg.NAKRetry == 0 {
		cfg.NAKRetry = 5 * time.Millisecond
	}
	if cfg.NAKRetryMax == 0 {
		cfg.NAKRetryMax = 500 * time.Millisecond
	}
	if cfg.MaxNAKs == 0 {
		cfg.MaxNAKs = 5
	}
	r := &Receiver{
		cfg:          cfg,
		nw:           nw,
		LatencyHist:  telemetry.NewHistogram(),
		RecoveryHist: telemetry.NewHistogram(),
		OrderedHOL:   telemetry.NewHistogram(),
	}
	r.eng = dmtp.NewReceiverEngine(loopClock{nw}, nodeDatapath{node: func() *netsim.Node { return r.node }, nw: nw, port: -1},
		dmtp.ReceiverConfig{
			NAKDelay:        cfg.NAKDelay,
			NAKRetry:        cfg.NAKRetry,
			NAKRetryMax:     cfg.NAKRetryMax,
			MaxNAKs:         cfg.MaxNAKs,
			Seed:            cfg.Seed,
			MaxSeqJump:      cfg.MaxSeqJump,
			AckInterval:     cfg.AckInterval,
			Ordered:         cfg.Ordered,
			OnGap:           cfg.OnGap,
			OnNAK:           cfg.OnNAK,
			Counters:        cfg.Counters,
			FinalizePayload: r.finalizePayload,
			Deliver:         r.handOver,
			Stats:           &r.Stats,
			LatencyHist:     r.LatencyHist,
			RecoveryHist:    r.RecoveryHist,
			OrderedHOL:      r.OrderedHOL,
			Recorder:        cfg.Recorder,
			Tracer:          cfg.Tracer,
		})
	return r
}

// Node returns the receiver's network node.
func (r *Receiver) Node() *netsim.Node { return r.node }

// Addr returns the receiver's address.
func (r *Receiver) Addr() wire.Addr { return r.node.Addr }

// Attach implements netsim.Handler.
func (r *Receiver) Attach(n *netsim.Node) {
	r.node = n
	r.eng.SetSelf(n.Addr)
}

// OutstandingGaps returns the number of sequence numbers currently awaiting
// recovery across all streams.
func (r *Receiver) OutstandingGaps() int { return r.eng.OutstandingGaps() }

// RegisterMetrics publishes the receiver's dmtp.rx.* metric set on reg via
// the shared helper, so a simulator receiver exports exactly the names a
// live daemon does. The simulator loop is single-threaded: sample the
// registry from loop context or after the run has drained.
func (r *Receiver) RegisterMetrics(reg *metrics.Registry) {
	dmtp.RegisterReceiverMetrics(reg, nil, func([]int64) (dmtp.ReceiverStats, int, int64, int64) {
		return r.Stats, r.OutstandingGaps(), r.LatencyHist.Quantile(0.5), r.LatencyHist.Quantile(0.99)
	})
}

// HandleFrame implements netsim.Handler.
func (r *Receiver) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	v := wire.View(f.Data)
	if _, err := v.Check(); err != nil {
		return
	}
	if v.IsControl() {
		return // receivers ignore control traffic addressed to them
	}
	r.eng.Ingest(v)
}

// finalizePayload decrypts FeatEncrypted payloads; plain payloads alias
// the frame (simulator frames outlive delivery).
func (r *Receiver) finalizePayload(v wire.View) []byte {
	payload := v.Payload()
	if r.cfg.Cipher != nil {
		if ext, err := v.Cipher(); err == nil {
			// Decrypt a copy: the view may alias a buffered frame.
			dec := append([]byte(nil), payload...)
			r.cfg.Cipher.Open(ext.KeyEpoch, ext.Nonce, dec)
			return dec
		}
	}
	return payload
}

// handOver delivers a finalized message to the application.
func (r *Receiver) handOver(msg Message) {
	r.DeliveredBytes += uint64(len(msg.Payload))
	if r.cfg.OnMessage != nil {
		r.cfg.OnMessage(msg)
	}
}
