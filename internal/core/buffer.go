package core

import (
	"fmt"
	"time"

	"repro/internal/dmtp"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// BufferConfig configures a first-line DTN buffer node (DTN 1 in Fig. 4).
type BufferConfig struct {
	// Upgrade is the mode installed on arriving sensor traffic in
	// dmtp.ModeBare for the WAN crossing (usually dmtp.ModeWAN).
	Upgrade dmtp.Mode
	// Forward is the downstream destination (DTN 2).
	Forward wire.Addr
	// ForwardPort is the egress port toward the WAN; other ports face the
	// DAQ network.
	ForwardPort int
	// MaxAge is the age budget installed into upgraded packets.
	MaxAge time.Duration
	// DeadlineBudget is the delivery deadline installed into upgraded
	// packets; zero leaves the deadline unset even if the mode is timely.
	DeadlineBudget time.Duration
	// DeadlineNotify is where on-path elements report late packets
	// (normally the sensor or an operations host).
	DeadlineNotify wire.Addr
	// BackPressureSink is where on-path elements send congestion signals
	// (normally the sensor).
	BackPressureSink wire.Addr
	// CapacityBytes bounds the retransmission buffer; oldest packets are
	// evicted first. Zero means 64 MiB.
	CapacityBytes int
	// Cipher, when non-nil and the upgrade mode includes FeatEncrypted,
	// encrypts payloads at the DTN (dmtp.RelayConfig.Cipher).
	Cipher dmtp.Cipher
	// Routes overrides egress for specific destinations (e.g. control
	// traffic heading back into the DAQ network); everything else leaves
	// via ForwardPort.
	Routes map[wire.Addr]int
	// StashTransit makes the node buffer sequenced data packets passing
	// through it (not just ones it upgrades) and repoint their
	// retransmission-buffer field to itself — the paper's "more 'recent'
	// (lower RTT) retransmission buffer" (§1, §5.1): downstream receivers
	// then recover from this closer node instead of the WAN entrance. A
	// packet whose number is at or below the newest this node holds for its
	// experiment (an upstream retransmission, a reordered straggler) passes
	// through untouched: not stashed, not repointed.
	StashTransit bool
	// Shards is the number of stash and journal partitions experiments are
	// spread across (zero means 1) — the same partitioning the live relay
	// runs, so conformance can diff the two.
	Shards int
	// Recorder, when non-nil, receives flight-recorder events (reshape
	// plus the buffer engine's nak-served / nak-miss / evict / trim /
	// crash / restart) stamped with virtual time. Nil disables recording.
	Recorder *metrics.FlightRecorder
	// JournalDir, when non-empty, enables the stash write-ahead journal
	// (internal/journal): every stash mutation is logged, Crash flushes
	// the log, and Restart replays it so post-crash NAKs meet a warm
	// buffer instead of the cold-start write-off path. The directory is
	// created if missing; an unusable directory panics — on the simulator
	// substrate a bad journal path is a harness configuration error, and
	// NewBufferNode has no error return to thread it through. The
	// journal syncs with its default policy, journal.SyncBatch.
	JournalDir string
}

// BufferStats are cumulative buffer-node counters: the engine's stash,
// NAK-service, trim and forwarding counters plus the adapter's own.
type BufferStats struct {
	dmtp.RelayStats
	Repointed   uint64 // transit packets re-homed to this buffer
	DroppedDown uint64 // frames discarded while crashed
}

// route is a flow's downstream on the simulator: the destination address
// and the egress port toward it.
type route struct {
	wire.Addr
	port int
}

// BufferNode is the first-line DTN: it upgrades sensor streams into the
// WAN mode, assigns sequence numbers, buffers sequenced packets, and serves
// retransmissions on NAK — the paper's "closer source" that shortens
// recovery RTT relative to retransmitting from the instrument (§5.1).
// All of that is dmtp.RelayEngine; this type adapts it to the simulator
// substrate: netsim ports, transit routing and adoption.
type BufferNode struct {
	cfg  BufferConfig
	node *netsim.Node
	nw   *netsim.Network
	eng  *dmtp.RelayEngine[route]

	repointed   uint64
	droppedDown uint64
}

// NewBufferNode creates a buffer node and registers it on the network.
func NewBufferNode(nw *netsim.Network, name string, addr wire.Addr, cfg BufferConfig) *BufferNode {
	b := NewBufferHandler(nw, cfg)
	b.node = nw.AddNode(name, addr, b)
	return b
}

// NewBufferHandler creates a buffer node without registering a node, for
// callers that wrap it in a decorating handler (e.g. discovery.Wrap); the
// node is bound via Attach when the wrapper is registered.
func NewBufferHandler(nw *netsim.Network, cfg BufferConfig) *BufferNode {
	b := &BufferNode{cfg: cfg, nw: nw}
	ecfg := dmtp.RelayConfig[route]{
		Shards: cfg.Shards,
		Buffer: dmtp.BufferConfig{CapacityBytes: cfg.CapacityBytes, Recorder: cfg.Recorder, Clock: loopClock{nw}},
		// Retransmissions leave via the WAN egress; the datapath clones
		// stash entries before framing them (the engine keeps ownership).
		Datapath:   nodeDatapath{node: func() *netsim.Node { return b.node }, nw: nw, port: cfg.ForwardPort},
		Alloc:      func(n int) []byte { return make([]byte, n) }, // heap; the GC collects
		JournalDir: cfg.JournalDir,
		Resolve:    b.resolve,
		Mode:       cfg.Upgrade,
		Upgrade: dmtp.Upgrade{
			MaxAge:           cfg.MaxAge,
			DeadlineBudget:   cfg.DeadlineBudget,
			DeadlineNotify:   cfg.DeadlineNotify,
			BackPressureSink: cfg.BackPressureSink,
		},
		Cipher: cfg.Cipher,
		Emit:   b.emit,
	}
	eng, err := dmtp.NewRelayEngine(ecfg)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	b.eng = eng
	return b
}

// resolve is the engine's flow-registration hook: every flow goes to
// Forward via ForwardPort.
func (b *BufferNode) resolve(wire.Addr, wire.ExperimentID) route {
	return route{b.cfg.Forward, b.cfg.ForwardPort}
}

// emit is the engine's Emit. The frame gets an independent copy: a netsim
// frame keeps its Data slice in flight and downstream elements mutate
// headers, while the engine's stash must retransmit the packet as it left
// this node.
func (b *BufferNode) emit(f *dmtp.Flow[route], pkt []byte) {
	b.node.Port(f.Dst.port).Send(&netsim.Frame{
		Src:  b.node.Addr,
		Dst:  f.Dst.Addr,
		Data: wire.View(pkt).Clone(),
		Born: b.nw.Now(),
	})
	f.Sent(1)
}

// Stats returns a snapshot of the node's counters.
func (b *BufferNode) Stats() BufferStats {
	return BufferStats{RelayStats: b.eng.Stats(), Repointed: b.repointed, DroppedDown: b.droppedDown}
}

// JournalStats returns the journal counters (zero without a journal).
func (b *BufferNode) JournalStats() journal.Stats { return b.eng.JournalStats() }

// JournalRecoveries returns the most recent per-shard journal recovery
// (the startup scan, or the last crash replay); nil without a journal.
// The campaign's journal-balance oracle inspects these.
func (b *BufferNode) JournalRecoveries() []*journal.Recovered { return b.eng.JournalRecoveries() }

// CloseJournal stops the journal writers and closes the segment files.
// The node itself has no other lifecycle on the simulator substrate;
// journaled harnesses (campaign durable cells, tests) must call this
// when the run drains, or the writer goroutines outlive the cell.
func (b *BufferNode) CloseJournal() error { return b.eng.Close() }

// Node returns the buffer's network node.
func (b *BufferNode) Node() *netsim.Node { return b.node }

// Addr returns the buffer's address (what upgraded headers point at).
func (b *BufferNode) Addr() wire.Addr { return b.node.Addr }

// BufferedBytes returns current buffer occupancy across all shards.
func (b *BufferNode) BufferedBytes() int { return b.eng.Stats().Occupancy }

// SeqOf returns the last sequence number this node assigned to exp (zero
// if it never sequenced the experiment). Campaign oracles use it to prove
// sequence state never bleeds across flows.
func (b *BufferNode) SeqOf(exp wire.ExperimentID) uint64 { return b.eng.Buffer().SeqOf(exp) }

// RegisterMetrics publishes the node's metric set on reg: the engine's
// (shared with the live relay, so names match by construction) with the
// adapter's transit and crash-discard counters in the same set. The
// simulator loop is single-threaded: sample the registry from loop context
// or after the run has drained.
func (b *BufferNode) RegisterMetrics(reg *metrics.Registry) {
	b.eng.RegisterMetricsWith(reg, []string{metrics.MetricRelayRepointed, metrics.MetricRelayDroppedDown}, func(dst []int64) {
		dst[0], dst[1] = int64(b.repointed), int64(b.droppedDown)
	})
}

// Attach implements netsim.Handler.
func (b *BufferNode) Attach(n *netsim.Node) {
	b.node = n
	b.eng.SetSelf(n.Addr)
}

// Crash models the DTN process dying (dmtp.RelayEngine.Crash): from now
// until Restart every arriving frame — data, NAKs, ACKs, transit — is
// discarded, and the retransmission buffer and flow table are lost; a
// journal, when configured, is flushed here (the OS had the writes; the
// process lost its memory) for Restart to replay.
func (b *BufferNode) Crash() { b.eng.Crash(nil) }

// Restart brings a crashed node back into service — warm when journaled,
// cold otherwise. A journal that cannot be replayed panics, like a bad
// JournalDir at construction.
func (b *BufferNode) Restart() {
	if err := b.eng.Restart(nil); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
}

// IsDown reports whether the node is crashed.
func (b *BufferNode) IsDown() bool { return b.eng.Down() }

// HandleFrame implements netsim.Handler.
func (b *BufferNode) HandleFrame(ingress *netsim.Port, f *netsim.Frame) {
	if b.eng.Down() {
		b.droppedDown++
		return
	}
	now := int64(b.nw.Now())
	// Idle-flow expiry rides the frame path so it advances with virtual
	// time.
	b.eng.Sweep(now)
	v := wire.View(f.Data)
	if _, err := v.Check(); err != nil {
		b.eng.CountMalformed()
		return
	}
	if v.IsControl() {
		if f.Dst != b.node.Addr {
			b.forwardRaw(f)
			return
		}
	} else if f.Dst != b.node.Addr && !f.Dst.IsZero() {
		// Transit data traffic: optionally adopt it (stash + repoint),
		// then route onward.
		if b.cfg.StashTransit {
			b.adoptTransit(v)
		}
		b.forwardRaw(f)
		return
	}
	b.eng.Handle(f.Src, v, now)
}

// adoptTransit buffers a sequenced transit packet and rewrites its
// retransmission pointer to this node, so downstream NAKs travel a shorter
// round trip. The stash takes ascending numbers only: a retransmission
// served by an upstream buffer that passes through while this node still
// holds that number (or a newer one) is refused, and travels on unchanged —
// uncounted here, still naming the upstream buffer that just proved it has
// the packet.
func (b *BufferNode) adoptTransit(v wire.View) {
	feats := v.Features()
	if !feats.Has(wire.FeatSequenced) || !feats.Has(wire.FeatReliable) {
		return
	}
	seq, err := v.Seq()
	if err != nil || seq == 0 {
		return
	}
	// The stashed copy names this node; the packet itself is repointed only
	// once the stash has accepted the copy.
	kept := v.Clone()
	if kept.SetRetransmitBuffer(b.node.Addr) != nil || !b.eng.Buffer().Stash(v.Experiment(), seq, kept) {
		return
	}
	_ = v.SetRetransmitBuffer(b.node.Addr) // same header layout as kept: cannot fail
	b.repointed++
}

// forwardRaw routes a transit frame by destination.
func (b *BufferNode) forwardRaw(f *netsim.Frame) {
	port := b.cfg.ForwardPort
	if p, ok := b.cfg.Routes[f.Dst]; ok {
		port = p
	}
	b.node.Port(port).Send(f)
}
