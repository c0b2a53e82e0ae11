package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/dmtp"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The replay pushes packets through the datapath's own sequence of public
// calls — the ones live.Sender, live.Relay and live.Receiver make per
// packet — without sockets, goroutines or the wall clock, and times each
// call a burst at a time. What the live path does between those calls
// (syscalls, the flow table, wake-ups) is not here; it is what
// live.kernel_remainder_us_per_msg reports.
const (
	// replayPackets is how many packets a traced run replays per workload.
	replayPackets = 200_000
	// replayBurst is the unit the datapath moves (the batch ring), and the
	// unit a span covers: two clock reads per 32 calls keep the timing
	// itself under 3 % of a span.
	replayBurst = 32
	// replayBurstTime is how far the fake clock moves per burst: 32
	// messages at a nominal 320 000 msgs/s. It sets how many messages fall
	// between two ACKs and — with 2 % loss and a 10 ms NAK delay — keeps
	// about 64 gaps outstanding.
	replayBurstTime = 100 * time.Microsecond
	// flushEvery is how often (in bursts) the replay waits for the journal's
	// writer goroutines at a Flush barrier. The writers drain in parallel
	// with the replay, as they do with the relay loop; the barrier shows how
	// far behind they run. 2048 records is a quarter of their queue.
	flushEvery = 64
	// microEvery is how often (in bursts) the stand-alone primitive timings
	// run.
	microEvery = 16
)

type replayResult struct {
	metrics map[string]float64
	// pathNsPerMsg is the self time of every replayed datapath call, per
	// message: the part of cpu_us_per_msg the layers account for.
	pathNsPerMsg float64
}

// relayOut collects what the buffer engines send: retransmissions.
type relayOut struct{ retx [][]byte }

func (o *relayOut) SendControl(wire.Addr, []byte)    {}
func (o *relayOut) SendData(_ wire.Addr, pkt []byte) { o.retx = append(o.retx, pkt) }

// rxOut collects what the receiver engine sends: NAKs and ACKs.
type rxOut struct{ ctrl [][]byte }

func (o *rxOut) SendControl(_ wire.Addr, pkt []byte) { o.ctrl = append(o.ctrl, pkt) }
func (o *rxOut) SendData(wire.Addr, []byte)          {}

// heldJournal is the dmtp.Journal the replayed engines write to. It holds
// each record back until apply, so that the journal's cost lands in a span
// of its own — a child of the engine call that caused it — instead of
// being timed record by record.
type heldJournal struct {
	j   *journal.Journal
	ops []heldOp
}

type heldOp struct {
	kind byte // 'a'ppend, 't'ombstone, t'r'im
	exp  wire.ExperimentID
	seq  uint64
	pkt  []byte
}

func (h *heldJournal) Append(exp wire.ExperimentID, seq uint64, pkt []byte) {
	h.ops = append(h.ops, heldOp{'a', exp, seq, pkt})
}
func (h *heldJournal) Tombstone(exp wire.ExperimentID, seq uint64) {
	h.ops = append(h.ops, heldOp{'t', exp, seq, nil})
}
func (h *heldJournal) TrimTo(exp wire.ExperimentID, cum uint64) {
	h.ops = append(h.ops, heldOp{'r', exp, cum, nil})
}

func (h *heldJournal) apply() int {
	n := len(h.ops)
	for _, op := range h.ops {
		switch op.kind {
		case 'a':
			h.j.Append(op.exp, op.seq, op.pkt)
		case 't':
			h.j.Tombstone(op.exp, op.seq)
		case 'r':
			h.j.TrimTo(op.exp, op.seq)
		}
	}
	h.ops = h.ops[:0]
	return n
}

// replay pushes packets packets of w through the layers and writes the
// spans to trace-<workload>.json under dir.
func replay(w workload, seed int64, dir string, packets int) (*replayResult, error) {
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, w.payload)
	rng.Read(payload)
	slices := rng.Perm(w.flows)

	clock := dmtp.NewFakeClock(int64(time.Hour)) // any non-zero start: 0 means "no timestamp"
	rec := metrics.NewFlightRecorder(0)
	reshapes := metrics.NewRegistry().Counter(metrics.MetricRelayReshapePrefix + "1")

	// Relay side: sharded buffer engines, journaled if the workload is.
	nsh := w.shards
	if nsh == 0 {
		nsh = runtime.GOMAXPROCS(0)
	}
	var jset *journal.Set
	held := make([]*heldJournal, nsh)
	if w.journal {
		jdir, err := os.MkdirTemp(dir, "replay-journal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(jdir)
		if jset, err = journal.OpenSet(jdir, nsh, journalSync, 0); err != nil {
			return nil, err
		}
		defer jset.Close()
	}
	out := &relayOut{}
	stats := make([]dmtp.BufferStats, nsh)
	sb := dmtp.NewShardedBuffer(nsh, func(i int) *dmtp.BufferEngine {
		cfg := dmtp.BufferConfig{
			CapacityBytes: 64 << 20 / nsh,
			Release:       wire.ReleaseBuffer,
			Stats:         &stats[i],
			Recorder:      rec,
			Clock:         clock,
		}
		if jset != nil {
			held[i] = &heldJournal{j: jset.Shard(i)}
			cfg.Journal = held[i]
		}
		return dmtp.NewBufferEngine(out, cfg)
	})
	applyHeld := func() (n int) {
		for _, h := range held {
			if h != nil {
				n += h.apply()
			}
		}
		return n
	}
	evicted := func() (n uint64) {
		for i := range stats {
			n += stats[i].Evicted
		}
		return n
	}
	trimmed := func() (n uint64) {
		for i := range stats {
			n += stats[i].Trimmed
		}
		return n
	}
	self := wire.AddrFrom(127, 0, 0, 1, 17580)
	upgrade := dmtp.Upgrade{Self: self, MaxAge: 500 * time.Millisecond, DeadlineBudget: time.Second}
	const upFeats = wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked | wire.FeatTimely | wire.FeatTimestamped
	extLen, _ := upFeats.ExtLen()

	// Receiver side, with the live receiver's defaults.
	nakDelay := w.nakDelay
	if nakDelay == 0 {
		nakDelay = 2 * time.Millisecond
	}
	rout := &rxOut{}
	counters := telemetry.NewCounterSet()
	rx := dmtp.NewReceiverEngine(clock, rout, dmtp.ReceiverConfig{
		NAKDelay:    nakDelay,
		NAKRetry:    20 * time.Millisecond,
		NAKRetryMax: 500 * time.Millisecond,
		MaxNAKs:     5,
		Seed:        seed,
		AckInterval: w.ackInterval,
		Counters:    counters,
		Deliver:     func(dmtp.Message) {},
		LatencyHist: telemetry.NewHistogram(),
		Recorder:    rec,
	})
	rx.SetSelf(wire.AddrFrom(127, 0, 0, 1, 17581))

	log := newSpanLog()
	enc := make([][]byte, replayBurst)
	for i := range enc {
		enc[i] = make([]byte, 0, 2048)
	}
	ups := make([]wire.View, replayBurst)
	exps := make([]wire.ExperimentID, replayBurst)
	seqs := make([]uint64, replayBurst)
	fwd := make([]wire.View, 0, replayBurst)
	var nak wire.NAK
	scratch := make([]byte, 0, 2048)
	microHist := telemetry.NewHistogram()
	var sent uint64

	for burst := 0; burst < packets/replayBurst; burst++ {
		now := clock.Now()
		log.begin()

		// Sender: encapsulate.
		log.begin()
		for i := range enc {
			slice := uint8(slices[sent%uint64(w.flows)])
			sent++
			exps[i] = wire.NewExperimentID(experiment, slice)
			h := wire.Header{Experiment: exps[i]}
			pkt, err := h.AppendTo(enc[i][:0])
			if err != nil {
				return nil, err
			}
			enc[i] = append(pkt, payload...)
		}
		log.end("wire.encode", replayBurst)

		// Relay: validate (once in the receive loop to pick the shard, once
		// in the shard handler), reshape into a pooled buffer, stamp, count,
		// stash.
		log.begin()
		for i := range enc {
			v := wire.View(enc[i])
			if _, err := v.Check(); err != nil {
				return nil, err
			}
			_ = sb.ShardIndex(v.Experiment())
			if _, err := v.Check(); err != nil {
				return nil, err
			}
		}
		log.end("wire.check", replayBurst)

		log.begin()
		for i := range enc {
			up, err := wire.View(enc[i]).ReshapeInto(wire.GetBuffer(len(enc[i])+extLen), 1, upFeats)
			if err != nil {
				return nil, err
			}
			ups[i] = up
		}
		log.end("wire.reshape", replayBurst)

		log.begin()
		for i, up := range ups {
			seqs[i] = sb.NextSeq(exps[i])
			dmtp.StampUpgrade(up, seqs[i], now, upgrade)
		}
		log.end("dmtp.stamp", replayBurst)

		log.begin()
		for i := range ups {
			reshapes.Inc()
			rec.RecordAt(now, metrics.EvReshape, uint64(exps[i]), seqs[i], 1)
		}
		log.end("metrics.record", replayBurst)

		ev0 := evicted()
		log.begin()
		for i, up := range ups {
			sb.Stash(exps[i], seqs[i], up)
		}
		if jset != nil {
			log.begin()
			n := applyHeld()
			log.end("journal.append", n)
		}
		if evicted() > ev0 {
			log.end("dmtp.stash_evict", replayBurst)
		} else {
			log.end("dmtp.stash", replayBurst)
		}
		if jset != nil && burst%flushEvery == flushEvery-1 {
			log.begin()
			jset.Flush()
			log.end("journal.flush", flushEvery*replayBurst)
		}

		// The forward leg is the kernel's. What the relay drops on it never
		// reaches the receiver.
		fwd = fwd[:0]
		for i, up := range ups {
			if w.dropEveryN > 0 && seqs[i]%uint64(w.dropEveryN) == 0 {
				continue
			}
			fwd = append(fwd, up)
		}

		// Receiver: validate, ingest.
		log.begin()
		for _, v := range fwd {
			if _, err := v.Check(); err != nil {
				return nil, err
			}
		}
		log.end("wire.check.rx", len(fwd))
		gaps := rx.OutstandingGaps() > 0
		log.begin()
		for _, v := range fwd {
			rx.Ingest(v)
		}
		if gaps {
			log.end("dmtp.rx_ingest_gaps", len(fwd))
		} else {
			log.end("dmtp.rx_ingest", len(fwd))
		}

		// Time passes; the receiver's NAK and ACK timers fire.
		target := now + int64(replayBurstTime)
		for {
			at, ok := clock.NextAt()
			if !ok || at > target {
				break
			}
			n0, naks := len(rout.ctrl), 0
			log.begin()
			clock.AdvanceTo(at)
			for _, pkt := range rout.ctrl[n0:] {
				if wire.View(pkt).ConfigID() == wire.ConfigNAK {
					naks++
				}
			}
			if naks > 0 {
				log.end("dmtp.rx_nak_fire", naks)
			} else {
				log.end("dmtp.rx_ack_fire", len(rout.ctrl)-n0)
			}
		}
		clock.AdvanceTo(target)

		// Relay: decode the control packets (and encode them once more, so
		// the span holds a full codec round trip), then serve.
		if len(rout.ctrl) > 0 {
			log.begin()
			for _, pkt := range rout.ctrl {
				switch wire.View(pkt).ConfigID() {
				case wire.ConfigNAK:
					if err := nak.DecodeFrom(pkt); err != nil {
						return nil, err
					}
					scratch, _ = nak.AppendTo(scratch[:0])
				case wire.ConfigAck:
					ack, err := wire.DecodeAck(pkt)
					if err != nil {
						return nil, err
					}
					scratch, _ = ack.AppendTo(scratch[:0])
				}
			}
			log.end("wire.ctrl_codec", len(rout.ctrl))
		}
		for _, pkt := range rout.ctrl {
			switch wire.View(pkt).ConfigID() {
			case wire.ConfigNAK:
				if err := nak.DecodeFrom(pkt); err != nil {
					return nil, err
				}
				out.retx = out.retx[:0]
				log.begin()
				sb.ServeNAK(&nak)
				log.end("dmtp.serve_nak", len(out.retx))
				log.begin()
				for _, p := range out.retx {
					if _, err := wire.View(p).Check(); err == nil {
						rx.Ingest(wire.View(p))
					}
				}
				log.end("dmtp.rx_ingest_retx", len(out.retx))
			case wire.ConfigAck:
				ack, err := wire.DecodeAck(pkt)
				if err != nil {
					return nil, err
				}
				before := trimmed()
				log.begin()
				sb.Trim(ack.Experiment, ack.CumulativeSeq)
				if jset != nil {
					log.begin()
					n := applyHeld()
					log.end("journal.trim", n)
				}
				log.end("dmtp.trim", int(trimmed()-before))
			}
		}
		rout.ctrl = rout.ctrl[:0]

		// Stand-alone timings of primitives that the calls above contain
		// (the receiver's per-message latency histogram, the shared counter
		// set); kept out of the path total so nothing is counted twice.
		if burst%microEvery == 0 {
			log.begin()
			for i := 0; i < replayBurst; i++ {
				microHist.ObserveDuration(time.Duration(300+i) * time.Microsecond)
			}
			log.end("micro.telemetry.hist_observe", replayBurst)
			log.begin()
			for i := 0; i < replayBurst; i++ {
				counters.Inc(telemetry.CounterRecovered)
			}
			log.end("micro.telemetry.counter_inc", replayBurst)
		}
		log.end("burst", replayBurst)
	}

	if err := log.write(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	costs := log.costs()
	typical := func(name string) float64 { // median over bursts of self time per item
		if c := costs[name]; c != nil {
			return median(c.perItem)
		}
		return 0
	}
	perItem := func(name string) float64 { // total self time over total items, for calls that are not made every burst
		if c := costs[name]; c != nil {
			return ratio(float64(c.self), float64(c.count))
		}
		return 0
	}
	perMsg := func(name string) float64 { // total self time amortised over every message
		if c := costs[name]; c != nil {
			return float64(c.self) / float64(packets)
		}
		return 0
	}
	res := &replayResult{metrics: map[string]float64{
		"wire.encode_ns_per_msg":         typical("wire.encode"),
		"wire.check_ns_per_msg":          typical("wire.check") + typical("wire.check.rx"),
		"wire.reshape_ns_per_msg":        typical("wire.reshape"),
		"wire.ctrl_codec_ns_per_pkt":     perItem("wire.ctrl_codec"),
		"dmtp.stamp_ns_per_msg":          typical("dmtp.stamp"),
		"dmtp.stash_ns_per_msg":          typical("dmtp.stash"),
		"dmtp.stash_evict_ns_per_msg":    typical("dmtp.stash_evict"),
		"dmtp.trim_ns_per_msg":           perMsg("dmtp.trim"),
		"dmtp.serve_nak_ns_per_retx":     perItem("dmtp.serve_nak"),
		"dmtp.rx_ingest_ns_per_msg":      typical("dmtp.rx_ingest"),
		"dmtp.rx_ingest_gaps_ns_per_msg": typical("dmtp.rx_ingest_gaps"),
		"dmtp.rx_nak_fire_ns_per_nak":    perItem("dmtp.rx_nak_fire"),
		"journal.append_ns_per_msg":      perMsg("journal.append") + perMsg("journal.trim"),
		"journal.flush_ns_per_msg":       typical("journal.flush"),
		"metrics.record_ns_per_event":    typical("metrics.record"),
		"telemetry.hist_observe_ns":      typical("micro.telemetry.hist_observe"),
		"telemetry.counter_inc_ns":       typical("micro.telemetry.counter_inc"),
	}}
	for name, c := range costs {
		// Not the root span, not the stand-alone timings, and not the journal,
		// which the rounds this total is compared with do not run.
		if name != "burst" && !strings.HasPrefix(name, "journal.") && !strings.HasPrefix(name, "micro.") {
			res.pathNsPerMsg += float64(c.self) / float64(packets)
		}
	}
	return res, nil
}
