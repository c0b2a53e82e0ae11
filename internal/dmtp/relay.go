package dmtp

// RelayEngine: the paper's DTN 1 (§5.1) as one protocol element. Both
// substrate adapters (core.BufferNode, live.Relay) drive it, so the flow
// table, the upgrade recipe and the journal lifecycle exist once;
// substrate-only behaviour enters as data — the Upgrade value, the buffer
// hooks, Emit, Cipher — never as a branch on who is calling.

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// flowTTL is how long a flow may stay idle before the relay forgets it
// (and a fresh first packet re-registers it).
const flowTTL = 60 * time.Second

// RelayConfig configures a RelayEngine. D is the adapter's per-flow
// destination: whatever Resolve returns is kept on the flow and handed
// back on every Emit.
type RelayConfig[D fmt.Stringer] struct {
	// Shards is the number of buffer shards experiments are partitioned
	// across (zero means 1).
	Shards int
	// Buffer is the template for every shard's BufferEngine, with
	// CapacityBytes the relay's total (split evenly) and Stats and Journal
	// left for the engine to fill per shard. Its Clock also stamps flow
	// idle times, its Recorder also gets injected-drop events.
	Buffer BufferConfig
	// Datapath carries NAK retransmissions.
	Datapath Datapath
	// Alloc supplies the length-n buffer an upgraded packet (or a
	// journal-restored entry) is written into; the stash owns it from then
	// on and hands it to Buffer.Release exactly once.
	Alloc func(n int) []byte
	// JournalDir, when non-empty, enables the stash write-ahead journal
	// (internal/journal) with fsync policy JournalSync.
	JournalDir  string
	JournalSync string
	// Locker, when non-nil, is the one lock serializing the engine: the
	// adapter holds it around Handle, Flow.Sent and anything it does through
	// Buffer(), and the engine takes it in every method not marked "caller
	// holds the lock". Nil suits a single-goroutine substrate.
	Locker sync.Locker

	// Resolve gives a new flow its destination. Called once per
	// registration, not per packet.
	Resolve func(src wire.Addr, exp wire.ExperimentID) D
	// MaxFlows bounds the flow table across all shards (zero: unlimited);
	// registrations beyond it are rejected. A flow idle for flowTTL is
	// forgotten.
	MaxFlows int

	// Mode is installed for the onward leg on every arriving packet in
	// ModeBare (an incoming FeatTraced is preserved on top), and Upgrade
	// holds the header fields stamped into it; Upgrade.Self arrives later
	// through SetSelf. A packet in any other config passes through
	// unmodified along its flow.
	Mode    Mode
	Upgrade Upgrade
	// TraceSample, when positive, originates a sampled in-band trace on
	// every TraceSample'th upgraded packet that does not already carry one
	// — adding FeatTraced is just another config rewrite at the boundary.
	TraceSample int
	// Cipher, when non-nil, seals each upgraded packet whose onward
	// features include FeatEncrypted (Req 5; the sensor stays cheap): the
	// payload is encrypted under key epoch 0 with the sequence number as
	// nonce, which the cipher extension carries, after the hop stamp and
	// before the stash.
	Cipher Cipher
	// DropEveryN, when > 0, stashes but does not emit every Nth sequenced
	// packet — fault injection so demos exercise recovery.
	DropEveryN int

	// Emit sends pkt onward to f.Dst. Ownership stays with the engine (or
	// the arriving packet's owner), as with Datapath.SendData. An adapter
	// may keep the reference while Handle's caller holds the lock: a stash
	// buffer let go meanwhile comes to its own Buffer.Release, where it
	// defers the recycling. The engine never asks for a flush, so a
	// retransmission (Datapath.SendData, sent at once or queued ahead of
	// its destination's forwards) may overtake retained data.
	Emit func(f *Flow[D], pkt []byte)
}

// Flow is one registered flow.
type Flow[D fmt.Stringer] struct {
	// Dst is the destination Resolve returned at registration.
	Dst D

	eng *RelayEngine[D]
	key flowKey // what the flow index verifies a hit against
	// buf and run are the shard and the stash run of the flow's
	// experiment, fixed at registration: a shard never replaces or deletes
	// a run, and Crash clears the flow table.
	buf *BufferEngine
	run *expStash
	// recipe is the compiled upgrade for the feature-set pair recipeFor
	// (incoming, onward) the flow's packets last took, nil until the first
	// upgrade and after SetSelf.
	recipe    *wire.Recipe
	recipeFor [2]wire.Features
	lastSeen  int64 // engine-clock nanos of the last handled packet
	upgraded  uint64
	forwarded uint64
}

// Sent records n packets of the flow as forwarded. Caller holds the lock.
func (f *Flow[D]) Sent(n int) {
	f.forwarded += uint64(n)
	f.eng.forwarded += uint64(n)
}

// flowKey identifies a flow: who is sending, and which experiment.
type flowKey struct {
	src wire.Addr
	exp wire.ExperimentID
}

// flowSlot is the place of the flow of (src, exp) in the 256-slot flow
// index: a multiplicative hash of the experiment ID, whose low byte (the
// slice) is what usually tells one source's flows apart, mixed with the
// source port. Flows that share a slot take turns in it.
func flowSlot(src wire.Addr, exp wire.ExperimentID) uint8 {
	return uint8((uint32(exp) ^ uint32(src.Port)<<8) * 0x9E3779B1 >> 24)
}

// FlowInfo describes one registered flow — the /flows endpoint and
// SIGUSR1 dump shape.
type FlowInfo struct {
	Src        wire.Addr
	Experiment wire.ExperimentID
	Dst        string
	Shard      int
	Upgraded   uint64
	Forwarded  uint64
	// IdleNs is how long ago the flow last saw a packet, on the engine
	// clock.
	IdleNs int64
}

// RelayStats are the relay counters summed across shards: cumulative,
// except Occupancy, the bytes buffered right now. The whole snapshot is
// taken under one lock hold, so BufferedBytes − ReleasedBytes − Occupancy
// (the stash-balance invariant behind dmtp.buf.stash_imbalance_bytes) is
// exactly 0 on a healthy engine at any instant — which is what lets the
// fleet monitor treat a nonzero sample as a violation, not scrape skew.
// Crashes counts one per shard per crash event, like the flight events.
type RelayStats struct {
	BufferStats
	Occupancy     int
	Upgraded      uint64
	Forwarded     uint64
	InjectedDrops uint64
	// Malformed counts datagrams the relay could not read: one that failed
	// View.Check (CountMalformed) or a NAK or ACK that would not decode.
	Malformed uint64
}

// RelayEngine is the substrate-agnostic relay state machine. All of its
// state is serialized by cfg.Locker; which shard an experiment lives on is
// its own business.
type RelayEngine[D fmt.Stringer] struct {
	cfg RelayConfig[D]
	// sb partitions sequence counters, stash and journal by experiment:
	// each shard evicts on its own and has its own journal files and writer
	// goroutine.
	sb *ShardedBuffer
	// jset is the per-shard write-ahead journal set (nil without
	// JournalDir). Hot-path appends go through the shard engines' Journal
	// hooks; the engine touches it directly only for lifecycle.
	jset *journal.Set

	// flows is the flow table: registration, MaxFlows, expiry and the
	// /flows snapshot go through it alone. index caches its entries by
	// slot, so a packet usually finds its flow without hashing its key;
	// Sweep and Crash leave no slot holding a flow the table dropped.
	flows     map[flowKey]*Flow[D]
	index     [1 << 8]*Flow[D] // one slot per flowSlot value
	fstats    FlowStats        // Active is filled in from len(flows) on read
	lastSweep int64
	nak       wire.NAK // scratch decode target, reusing Ranges capacity
	// recipes holds the compiled upgrades, one per pair of incoming and
	// onward feature sets seen; SetSelf empties it and every flow's.
	recipes map[[2]wire.Features]*wire.Recipe

	upgraded      uint64 // also drives boundary trace sampling
	injectedDrops uint64
	forwarded     uint64
	malformed     uint64
}

// NewRelayEngine builds the shards, opens the journal when configured and
// restores whatever a previous process left in it — recovered first, then
// serving.
func NewRelayEngine[D fmt.Stringer](cfg RelayConfig[D]) (*RelayEngine[D], error) {
	if cfg.Buffer.Clock == nil {
		cfg.Buffer.Clock = WallClock{}
	}
	nsh := max(cfg.Shards, 1)
	bcfg := cfg.Buffer
	if bcfg.CapacityBytes > 0 && nsh > 1 {
		bcfg.CapacityBytes = max(bcfg.CapacityBytes/nsh, 1)
	}
	e := &RelayEngine[D]{cfg: cfg, flows: make(map[flowKey]*Flow[D]), lastSweep: bcfg.Clock.Now(),
		recipes: make(map[[2]wire.Features]*wire.Recipe)}
	if cfg.JournalDir != "" {
		set, err := journal.OpenSet(cfg.JournalDir, nsh, cfg.JournalSync, 0)
		if err != nil {
			return nil, fmt.Errorf("dmtp: opening stash journal: %w", err)
		}
		e.jset = set
	}
	e.sb = NewShardedBuffer(nsh, func(i int) *BufferEngine {
		// The interface value must stay nil (not a typed nil) when
		// journaling is off, or the buffer engine would call through it.
		c := bcfg
		if e.jset != nil {
			c.Journal = e.jset.Shard(i)
		}
		return NewBufferEngine(cfg.Datapath, c)
	})
	if e.jset != nil {
		for i, buf := range e.sb.shards {
			e.restoreShard(buf, e.jset.Recovered(i))
		}
	}
	return e, nil
}

// lock and unlock take cfg.Locker, when the adapter supplied one.
func (e *RelayEngine[D]) lock() {
	if e.cfg.Locker != nil {
		e.cfg.Locker.Lock()
	}
}

func (e *RelayEngine[D]) unlock() {
	if e.cfg.Locker != nil {
		e.cfg.Locker.Unlock()
	}
}

// restoreShard replays one shard's journal recovery into its buffer
// engine: surviving entries are copied into Alloc'd buffers (the stash
// owns and releases its entries) and re-stashed without re-journaling,
// then sequence counters are raised to the journal's floors so later
// upgrades never reuse a sequence number. The journal is outside input: an
// entry that does not ascend is refused (and counted) by the stash, and its
// copy goes back the way a stashed one would. Caller holds the lock, or
// runs before the adapter can reach the engine.
func (e *RelayEngine[D]) restoreShard(buf *BufferEngine, rec *journal.Recovered) {
	for _, ent := range rec.Entries {
		pkt := e.cfg.Alloc(len(ent.Payload))
		copy(pkt, ent.Payload)
		if !buf.RestoreStash(ent.Exp, ent.Seq, pkt) && e.cfg.Buffer.Release != nil {
			e.cfg.Buffer.Release(pkt)
		}
	}
	for exp, seq := range rec.Seqs {
		buf.RestoreSeq(exp, seq)
	}
}

// SetSelf installs the relay's own address, which upgraded packets name as
// their retransmission buffer: at Attach or bind. The recipes compiled
// with the old address go, the ones flows hold included, and the next
// upgrades compile afresh.
func (e *RelayEngine[D]) SetSelf(self wire.Addr) {
	e.lock()
	defer e.unlock()
	e.cfg.Upgrade.Self = self
	clear(e.recipes)
	for _, f := range e.flows {
		f.recipe = nil
	}
}

// recipe returns the compiled upgrade of packets with feature set in into
// Mode's config ID with feature set out, compiling it on first use from
// ReshapeInto and StampUpgrade with the engine's Upgrade.
func (e *RelayEngine[D]) recipe(in, out wire.Features) (*wire.Recipe, error) {
	k := [2]wire.Features{in, out}
	if r := e.recipes[k]; r != nil {
		return r, nil
	}
	u := e.cfg.Upgrade
	r, err := wire.CompileReshape(in, e.cfg.Mode.ConfigID, out, func(up wire.View, seq uint64, now int64) {
		StampUpgrade(up, seq, now, u)
	})
	if err != nil {
		return nil, err
	}
	e.recipes[k] = r
	return r, nil
}

// Buffer exposes the sharded stash for callers that sequence or stash
// outside the upgrade path (transit adoption, oracles, tests). Caller holds
// the lock.
func (e *RelayEngine[D]) Buffer() *ShardedBuffer { return e.sb }

// Handle processes one packet. Precondition: v has passed View.Check; the
// compiled upgrade copies its header without checking it a second time.
// NAKs and ACKs carry the experiment in the core header, so they find their
// shard the way data does. Caller holds the lock, and sends whatever Emit
// or the Datapath retained before releasing it.
func (e *RelayEngine[D]) Handle(src wire.Addr, v wire.View, now int64) {
	exp := v.Experiment()
	if v.IsControl() {
		e.handleControl(e.sb.Shard(exp), v)
		return
	}
	if e.down() {
		// Crashed — possibly between two packets of one burst; model the
		// process death: nothing is handled until Restart.
		return
	}
	// Register the flow before spending a sequence number, so a flow the
	// full table rejects consumes no sequencing state.
	f := e.flowFor(src, exp, now)
	if f == nil {
		return
	}
	if v.ConfigID() != configBare {
		// Already upgraded or in another mode: pass through along the
		// packet's registered flow.
		e.cfg.Emit(f, v)
		return
	}
	// An in-band trace rides along through the upgrade; the relay can also
	// originate one at the boundary.
	have := v.Features()
	feats := e.cfg.Mode.Features | have&wire.FeatTraced
	n := e.upgraded + 1
	originate := e.cfg.TraceSample > 0 && !feats.Has(wire.FeatTraced) && n%uint64(e.cfg.TraceSample) == 0
	if originate {
		feats |= wire.FeatTraced
	}
	r := f.recipe
	if pair := [2]wire.Features{have, feats}; r == nil || f.recipeFor != pair {
		var err error
		if r, err = e.recipe(have, feats); err != nil {
			return
		}
		// A sampled boundary trace is the exception: it leaves the flow
		// holding its common-case recipe.
		if !originate {
			f.recipe, f.recipeFor = r, pair
		}
	}
	sequenced := feats.Has(wire.FeatSequenced)
	var seq uint64
	if sequenced {
		seq = f.run.nextSeq()
	}
	// Write the upgraded packet directly into a buffer sized for it; the
	// buffer doubles as the stash entry, so with a pooled Alloc the
	// upgrade path performs no steady-state allocation.
	extLen, _ := feats.ExtLen()
	up := r.Apply(e.cfg.Alloc(len(v)+extLen), v, seq, now)
	if originate {
		_ = up.SetTrace(wire.TraceExt{TraceID: uint32(n), Flags: wire.TraceSampledFlag})
	}
	if up.TraceSampled() {
		_ = up.AppendHopStamp(wire.TraceReshapeHop(e.cfg.Mode.ConfigID), now)
	}
	if e.cfg.Cipher != nil && feats.Has(wire.FeatEncrypted) {
		nonce := uint32(seq)
		_ = up.SetCipher(wire.CipherExt{Nonce: nonce}) // feats has the field
		e.cfg.Cipher.Seal(0, nonce, up.Payload())
	}
	// No flight event and no shared counter per packet: upgraded is what
	// dmtp.relay.reshapes.config<Mode.ConfigID> reads at scrape time.
	e.upgraded = n
	f.upgraded++
	if sequenced {
		// The stash takes ownership of the buffer: downstream elements
		// mutate headers in flight, and the buffer must retransmit the
		// packet as it left here. It cannot refuse: seq is fresh from the
		// run's counter, which stays at or above the newest number held
		// (nothing else feeds this path, and a restore's RestoreSeq follows
		// its RestoreStash).
		f.buf.stash(f.run, seq, up, now)
		if e.cfg.DropEveryN > 0 && seq%uint64(e.cfg.DropEveryN) == 0 {
			e.injectedDrops++
			f.buf.flushEvicts() // the stash's evictions come first in the ring
			e.cfg.Buffer.Recorder.RecordAt(now, metrics.EvInjectedDrop, uint64(exp), seq, 0)
			return
		}
	}
	e.cfg.Emit(f, up)
}

// handleControl serves NAKs and ACKs addressed to the relay; one that
// does not decode is counted malformed.
func (e *RelayEngine[D]) handleControl(buf *BufferEngine, v wire.View) {
	switch v.ConfigID() {
	case wire.ConfigNAK:
		if err := e.nak.DecodeFrom(v); err != nil {
			e.malformed++
			return
		}
		buf.ServeNAK(&e.nak)
	case wire.ConfigAck:
		ack, err := wire.DecodeAck(v)
		if err != nil {
			e.malformed++
			return
		}
		buf.Trim(ack.Experiment, ack.CumulativeSeq)
	}
}

// CountMalformed counts one datagram that failed View.Check, which the
// adapter runs before Handle. Caller holds the lock.
func (e *RelayEngine[D]) CountMalformed() { e.malformed++ }

// flowFor returns the registered flow for (src, exp), registering it on
// first packet: the destination is resolved now and kept for the flow's
// lifetime. Nil means the table was full. The flow index is
// tried first; a miss falls back to the table and leaves the flow in its
// slot.
func (e *RelayEngine[D]) flowFor(src wire.Addr, exp wire.ExperimentID, now int64) *Flow[D] {
	// The hit path compares fields rather than building a flowKey: the key
	// would be stored field by field and copied back in one wider load,
	// which stalls store forwarding on every packet.
	slot := &e.index[flowSlot(src, exp)]
	if f := *slot; f != nil && f.key.src == src && f.key.exp == exp {
		f.lastSeen = now
		return f
	}
	k := flowKey{src: src, exp: exp}
	f, ok := e.flows[k]
	if !ok {
		if max := e.cfg.MaxFlows; max > 0 && len(e.flows) >= max {
			e.fstats.Rejected++
			return nil
		}
		buf := e.sb.Shard(exp)
		f = &Flow[D]{Dst: e.cfg.Resolve(src, exp), eng: e, key: k, buf: buf, run: buf.expFor(exp)}
		e.flows[k] = f
		e.fstats.Opened++
	}
	f.lastSeen = now
	*slot = f
	return f
}

// Sweep lazily expires flows idle for flowTTL or longer, at most once per
// half-TTL. The adapter's packet goroutine calls it between packets or
// bursts with the lock released, so it costs nothing on the packet path.
func (e *RelayEngine[D]) Sweep(now int64) {
	const ttl = int64(flowTTL)
	if now-e.lastSweep < ttl/2 {
		return
	}
	e.lastSweep = now
	e.lock()
	defer e.unlock()
	for k, f := range e.flows {
		if now-f.lastSeen >= ttl {
			delete(e.flows, k)
			if slot := &e.index[flowSlot(k.src, k.exp)]; *slot == f {
				*slot = nil
			}
			e.fstats.Expired++
		}
	}
}

// Crash models the relay process dying: every shard's retransmission
// buffer is lost and the flow table is cleared (a real restart re-learns
// its sessions, each from its next packet). Without a journal,
// post-Restart NAKs meet a cold buffer — the condition NAK-based recovery
// must degrade gracefully under.
// With one, the log is flushed once quiesce (non-nil where the packet path
// runs on its own goroutine) has stopped that path: every append the
// shards enqueued is then in the writer's queue and the barrier pushes it
// to disk. Crash does nothing when already down.
func (e *RelayEngine[D]) Crash(quiesce func()) {
	e.lock()
	down := e.down()
	if !down {
		for _, buf := range e.sb.shards {
			buf.Crash() // releases every stash buffer
		}
		clear(e.flows)
		clear(e.index[:])
	}
	e.unlock()
	if down {
		return
	}
	if quiesce != nil {
		quiesce()
	}
	if e.jset != nil {
		e.jset.Flush()
	}
}

// Restart brings a crashed relay back with an empty flow table. Without a
// journal the buffers come back cold; with one, the log is replayed first
// — stash entries and sequence floors rebuilt shard by shard — so NAK
// service resumes warm. rebind (nil on the simulator) reopens the
// substrate's ingress after the replay and before the shards are marked
// up; if it fails the relay stays down.
func (e *RelayEngine[D]) Restart(rebind func() error) error {
	if e.jset != nil {
		recs, err := e.jset.Replay()
		if err != nil {
			return fmt.Errorf("dmtp: journal replay on restart: %w", err)
		}
		e.lock()
		for i, buf := range e.sb.shards {
			e.restoreShard(buf, recs[i])
		}
		e.unlock()
	}
	if rebind != nil {
		if err := rebind(); err != nil {
			return err
		}
	}
	e.lock()
	defer e.unlock()
	for _, buf := range e.sb.shards {
		buf.Restart()
	}
	return nil
}

// down is Down for a caller that holds the lock. Shards crash and restart
// together; the first speaks for all.
func (e *RelayEngine[D]) down() bool { return e.sb.shards[0].Down() }

// Down reports whether the relay is crashed and awaiting Restart.
func (e *RelayEngine[D]) Down() bool {
	e.lock()
	defer e.unlock()
	return e.down()
}

// Close stops the journal writers and closes the segment files. The
// engine has no other resources.
func (e *RelayEngine[D]) Close() error {
	if e.jset == nil {
		return nil
	}
	return e.jset.Close()
}

// JournalStats returns the journal counters (zero without a journal).
func (e *RelayEngine[D]) JournalStats() journal.Stats {
	if e.jset == nil {
		return journal.Stats{}
	}
	return e.jset.Stats()
}

// JournalRecoveries returns the most recent per-shard journal recovery —
// the startup scan, or the last crash replay. Nil without a journal.
func (e *RelayEngine[D]) JournalRecoveries() []*journal.Recovered {
	if e.jset == nil {
		return nil
	}
	return e.jset.Recoveries()
}

// RecordPending records what the shards hold back from the flight
// recorder, the eviction run of the last now Handle was given, so a relay
// that evicts and then goes quiet shows that run without a stats read. An
// adapter whose lock holds each pass Handle one now calls it at the end of
// every such hold, which keeps each run one event. Caller holds the lock.
func (e *RelayEngine[D]) RecordPending() {
	for _, buf := range e.sb.shards {
		buf.flushEvicts()
	}
}

// Stats returns a snapshot of the counters.
func (e *RelayEngine[D]) Stats() RelayStats {
	e.lock()
	defer e.unlock()
	return e.stats()
}

// stats is Stats for a caller that holds the lock.
func (e *RelayEngine[D]) stats() RelayStats {
	s := RelayStats{Upgraded: e.upgraded, Forwarded: e.forwarded, InjectedDrops: e.injectedDrops, Malformed: e.malformed}
	for _, buf := range e.sb.shards {
		s.BufferStats.Add(buf.Stats())
		s.Occupancy += buf.BufferedBytes()
	}
	return s
}

// FlowStats returns the flow-table counters (dmtp.relay.flows.*).
func (e *RelayEngine[D]) FlowStats() FlowStats {
	e.lock()
	defer e.unlock()
	return e.flowStats()
}

// flowStats is FlowStats for a caller that holds the lock.
func (e *RelayEngine[D]) flowStats() FlowStats {
	s := e.fstats
	s.Active = uint64(len(e.flows))
	return s
}

// Flows snapshots the flow table, ordered by shard, then source, then
// experiment.
func (e *RelayEngine[D]) Flows() []FlowInfo {
	now := e.cfg.Buffer.Clock.Now()
	var out []FlowInfo
	e.lock()
	for k, f := range e.flows {
		out = append(out, FlowInfo{
			Src:        k.src,
			Experiment: k.exp,
			Dst:        f.Dst.String(),
			Shard:      e.sb.ShardIndex(k.exp),
			Upgraded:   f.upgraded,
			Forwarded:  f.forwarded,
			IdleNs:     now - f.lastSeen,
		})
	}
	e.unlock()
	slices.SortFunc(out, func(a, b FlowInfo) int {
		if c := cmp.Compare(a.Shard, b.Shard); c != 0 || a.Src == b.Src {
			return cmp.Or(c, cmp.Compare(a.Experiment, b.Experiment))
		}
		return strings.Compare(a.Src.String(), b.Src.String())
	})
	return out
}

// RegisterMetrics publishes the relay's metric set on reg, with no
// adapter values (RegisterMetricsWith).
func (e *RelayEngine[D]) RegisterMetrics(reg *metrics.Registry) { e.RegisterMetricsWith(reg, nil, nil) }

// RegisterMetricsWith publishes the relay's metric set on reg as one
// sampled set — dmtp.buf.* (with per-shard occupancy), dmtp.relay.*, the
// flow-table family and the reshape count for Mode.ConfigID — followed by the
// adapter's own names in extra, whose values fill writes into its dst
// (len(extra) long). A scrape reads every value, fill's included, under one
// hold of the lock, so a law across two of them holds in every scrape. The
// journal family, when journaled, is a set of its own. Both substrates
// register through here, so their metric names match by construction.
func (e *RelayEngine[D]) RegisterMetricsWith(reg *metrics.Registry, extra []string, fill func(dst []int64)) {
	names := []string{
		metrics.MetricBufStashed,
		metrics.MetricBufStashedBytes,
		metrics.MetricBufEvicted,
		metrics.MetricBufTrimmed,
		metrics.MetricBufRefused,
		metrics.MetricBufNAKsServed,
		metrics.MetricBufRetransmits,
		metrics.MetricBufNAKMisses,
		metrics.MetricBufCrashes,
		metrics.MetricBufOccupancyBytes,
		metrics.MetricBufStashImbalance,
		metrics.MetricRelayUpgraded,
		metrics.MetricRelayReshapePrefix + strconv.Itoa(int(e.cfg.Mode.ConfigID)),
		metrics.MetricRelayForwarded,
		metrics.MetricRelayInjectedDrops,
		metrics.MetricRelayMalformed,
		metrics.MetricRelayFlowsActive,
		metrics.MetricRelayFlowsOpened,
		metrics.MetricRelayFlowsExpired,
		metrics.MetricRelayFlowsRejected,
	}
	for i := range e.sb.shards {
		names = append(names, metrics.MetricBufShardOccupancyPrefix+strconv.Itoa(i))
	}
	n := len(names)
	reg.RegisterSet(append(names, extra...), func(dst []int64) {
		e.lock()
		defer e.unlock()
		s, f := e.stats(), e.flowStats()
		vals := [...]uint64{
			s.Buffered, s.BufferedBytes, s.Evicted, s.Trimmed, s.Refused,
			s.NAKs, s.Retransmits, s.Misses, s.Crashes, uint64(s.Occupancy),
			s.BufferedBytes - s.ReleasedBytes - uint64(s.Occupancy),
			// Every upgrade is a reshape into Mode.ConfigID.
			s.Upgraded, s.Upgraded, s.Forwarded, s.InjectedDrops, s.Malformed,
			f.Active, f.Opened, f.Expired, f.Rejected,
		}
		for i, v := range vals {
			dst[i] = int64(v)
		}
		for i, buf := range e.sb.shards {
			dst[len(vals)+i] = int64(buf.BufferedBytes())
		}
		if fill != nil {
			fill(dst[n:])
		}
	})
	if e.jset != nil {
		e.jset.RegisterMetrics(reg)
	}
}
