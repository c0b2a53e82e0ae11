package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// roundPlan sizes one round: a fresh trio, a fixed warm-up, a closed-loop
// phase and a paced phase.
type roundPlan struct {
	warmup uint64 // intact deliveries before the first timed phase
	closed time.Duration
	paced  time.Duration
	seed   int64
	// traced turns on in-band trace sampling, the receiver's span
	// collector and the 10 ms sampler; end-to-end numbers come from rounds
	// with it off.
	traced bool
	// journal turns on the relay's write-ahead journal, in a directory under
	// scratch and with journalSync. Only the journal round of a traced
	// invocation sets it (workload.journal says why).
	journal bool
	scratch string
}

// roundResult is everything one round measured. m holds each metric by its
// published name; the caller takes medians across rounds key by key.
type roundResult struct {
	m         map[string]float64
	attempted uint64
	failed    uint64
	// broken lists every oracle or conservation violation; empty means the
	// round's numbers can be trusted.
	broken []string
	// steal is the CPU time (jiffies, 10 ms) the hypervisor took from the
	// machine while the round ran, wall its duration, lateP90 how late (ns)
	// the generator started its p90 paced burst.
	steal   uint64
	wall    time.Duration
	lateP90 float64
	traced  bool
	journal bool
	caps    map[string]string // role → probed kernel-batch features
	fs      string            // journal filesystem, "" without a journal
}

// calm reports whether the machine left the round alone: the numbers of a
// round that was not calm describe the neighbours, not the program.
func (res *roundResult) calm() bool {
	cpuSeconds := res.wall.Seconds() * float64(runtime.NumCPU())
	return jiffies(res.steal) <= stealLimit*cpuSeconds && res.lateP90 <= float64(lateLimit)
}

const (
	experiment = 777
	// bodyVariants is how many distinct seeded payload bodies the generator
	// cycles through; the oracle knows each one's checksum.
	bodyVariants = 16
	// stallPatience is how long the closed loop waits for a credit before
	// declaring the trio wedged. A written-off message takes ~1 s to give
	// up on (5 NAKs with backoff), so this is well beyond it.
	stallPatience  = 5 * time.Second
	settlePatience = 5 * time.Second
	// traceSample is the sender's in-band trace sampling in traced rounds.
	traceSample = 64
	// lateLimit is how late the generator may start its p90 burst before
	// the paced latencies are the generator's, not the program's.
	lateLimit = 200 * time.Microsecond
	// stealLimit is the share of a round's CPU time the hypervisor may take
	// before the round counts as disturbed.
	stealLimit = 0.01
)

// run is one round in flight.
type run struct {
	w    workload
	plan roundPlan

	snd    *live.Sender
	rly    *live.Relay
	rcv    *live.Receiver
	rlyReg *metrics.Registry
	jrDir  string // the round's journal directory, "" without a journal
	recs   [3]*metrics.FlightRecorder
	tracer *tracespan.Collector

	led  *ledger
	win  *window
	bufs [][]byte // payload templates, one per body variant
	// sliceOf is the seeded flow → instrument-slice order.
	sliceOf []uint8

	nextIdx uint64 // generator only

	good atomic.Uint64 // intact first deliveries
	bad  atomic.Uint64 // corrupt deliveries + write-offs: accounted for, but failed
	// Messages with pacedFrom ≤ index < pacedTo belong to the paced phase:
	// they are latency samples and hold no window credit.
	pacedFrom, pacedTo atomic.Uint64

	// Receiver read goroutine only, until it has stopped.
	lat    []int64 // paced-phase due → delivery, ns
	recLat []int64 // the same, for NAK-recovered messages

	// Traced rounds: cost of closed-loop Sends, sampled every 7th (co-prime
	// with the batch of 32, so the one send in 32 that flushes is sampled in
	// proportion).
	sendNs, sendN int64
}

// counters is a point-in-time copy of everything the layers count, taken
// on either side of the closed-loop phase.
type counters struct {
	at     time.Time
	good   uint64
	ru     syscall.Rusage
	snd    live.SenderStats
	rly    live.RelayStats
	rcv    live.ReceiverStats
	sndB   live.BatchStats
	rlyB   live.BatchStats
	rcvB   live.BatchStats
	jr     journal.Stats
	pool   wire.PoolStats
	events uint64
	steal  uint64 // /proc/stat steal, jiffies
	// Traced rounds only (ReadMemStats stops the world; the registry scrape
	// takes every shard lock).
	evicted int64
	mem     runtime.MemStats
}

func (r *run) snapshot() counters {
	c := counters{
		at:    time.Now(),
		good:  r.good.Load(),
		snd:   r.snd.Stats(),
		rly:   r.rly.Stats(),
		rcv:   r.rcv.Stats(),
		sndB:  r.snd.BatchStats(),
		rlyB:  r.rly.BatchStats(),
		rcvB:  r.rcv.BatchStats(),
		jr:    r.rly.JournalStats(),
		pool:  wire.DefaultPoolStats(),
		steal: stealJiffies(),
	}
	for _, rec := range r.recs {
		c.events += rec.Total()
	}
	if r.plan.traced {
		c.evicted, _ = metrics.SampleValue(r.rlyReg.Snapshot(), metrics.MetricBufEvicted)
		runtime.ReadMemStats(&c.mem)
	}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &c.ru) // cannot fail for RUSAGE_SELF
	return c
}

func cpuSeconds(ru *syscall.Rusage) (user, sys float64) {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// newRun builds the loopback trio the way cmd/dmtp-send, -relay and -recv
// build theirs — flight recorder on, registry registered, Shards =
// GOMAXPROCS, MaxAge 500 ms, DeadlineBudget 1 s — with the workload's
// deviations on top.
func newRun(w workload, plan roundPlan) (*run, error) {
	rng := rand.New(rand.NewSource(plan.seed))
	r := &run{w: w, plan: plan, win: newWindow(w.window())}
	r.pacedFrom.Store(math.MaxUint64)
	r.pacedTo.Store(math.MaxUint64)

	// Seeded inputs: payload bodies, and which slice each flow uses.
	sums := make([]uint32, bodyVariants)
	r.bufs = make([][]byte, bodyVariants)
	for k := range r.bufs {
		b := make([]byte, w.payload)
		rng.Read(b[prefixLen:])
		sums[k] = crc32.Checksum(b[prefixLen:], castagnoli)
		binary.BigEndian.PutUint32(b[offSum:], sums[k])
		r.bufs[k] = b
	}
	r.sliceOf = make([]uint8, w.flows)
	for f, s := range rng.Perm(w.flows) {
		r.sliceOf[f] = uint8(s)
	}
	r.led = newLedger(w.payload, r.sliceOf, sums)
	r.lat = make([]int64, 0, pacer{interval: pacedInterval}.bursts(plan.paced)*pacedBurst)

	for i := range r.recs {
		r.recs[i] = metrics.NewFlightRecorder(0)
	}
	register := func(rec *metrics.FlightRecorder, role func(*metrics.Registry)) *metrics.Registry {
		reg := metrics.NewRegistry()
		role(reg)
		metrics.RegisterProcessMetrics(reg)
		metrics.RegisterFlightMetrics(reg, rec)
		return reg
	}

	rcfg := live.ReceiverConfig{
		Listen:      "127.0.0.1:0",
		NAKDelay:    w.nakDelay,
		AckInterval: w.ackInterval,
		Seed:        plan.seed,
		Recorder:    r.recs[2],
		OnMessage:   r.onMessage,
		OnGap: func(wire.ExperimentID, uint64) {
			r.bad.Add(1)
			r.win.writtenOff()
		},
	}
	if plan.traced {
		r.tracer = tracespan.NewCollector(0)
		rcfg.Tracer = r.tracer
	}
	var err error
	if r.rcv, err = live.NewReceiver(rcfg); err != nil {
		return nil, err
	}
	register(r.recs[2], r.rcv.RegisterMetrics)

	shards := w.shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	lcfg := live.RelayConfig{
		Listen:         "127.0.0.1:0",
		Forward:        r.rcv.Addr(),
		Shards:         shards,
		MaxAge:         500 * time.Millisecond,
		DeadlineBudget: time.Second,
		DropEveryN:     w.dropEveryN,
		Recorder:       r.recs[1],
	}
	if plan.journal {
		dir, err := os.MkdirTemp(plan.scratch, "journal-")
		if err != nil {
			r.close()
			return nil, err
		}
		r.jrDir = dir
		lcfg.JournalDir = dir
		lcfg.JournalSync = journalSync
	}
	if r.rly, err = live.NewRelay(lcfg); err != nil {
		r.close()
		return nil, err
	}
	r.rlyReg = register(r.recs[1], r.rly.RegisterMetrics)

	scfg := live.SenderConfig{
		Dst:        r.rly.Addr(),
		Experiment: experiment,
		BatchSize:  32,
		Recorder:   r.recs[0],
	}
	if plan.traced {
		scfg.TraceSample = traceSample
	}
	if r.snd, err = live.NewSenderWithConfig(scfg); err != nil {
		r.close()
		return nil, err
	}
	register(r.recs[0], r.snd.RegisterMetrics)
	return r, nil
}

// close tears the trio down, sender first so nothing is in flight towards a
// closed socket, and removes the round's journal.
func (r *run) close() {
	if r.snd != nil {
		r.snd.Close()
	}
	if r.rly != nil {
		r.rly.Close()
	}
	if r.rcv != nil {
		r.rcv.Close()
	}
	if r.jrDir != "" {
		os.RemoveAll(r.jrDir)
	}
}

// onMessage is the receiver's delivery callback: judge the delivery, return
// its credit, and in the paced phase clock it against its due time.
func (r *run) onMessage(m live.Message) {
	idx, due, v := r.led.deliver(m.Experiment.Slice(), m.Payload)
	switch v {
	case delivDup:
		return // its credit came back with the first copy
	case delivCorrupt:
		r.bad.Add(1)
	case delivGood:
		r.good.Add(1)
	}
	if idx < r.pacedFrom.Load() {
		r.win.delivered()
	} else if v == delivGood && idx < r.pacedTo.Load() {
		d := time.Now().UnixNano() - due
		r.lat = append(r.lat, d)
		if m.Recovered {
			r.recLat = append(r.recLat, d)
		}
	}
}

// send emits the next message. due is stamped into the payload; the index
// picks the flow (event-major, like a readout that emits every slice of
// one event before the next) and the body variant.
func (r *run) send(due int64) error {
	idx := r.nextIdx
	r.nextIdx++
	b := r.bufs[idx%bodyVariants]
	binary.BigEndian.PutUint64(b[offDue:], uint64(due))
	binary.BigEndian.PutUint64(b[offIndex:], idx)
	slice := r.sliceOf[idx%uint64(len(r.sliceOf))]
	if r.plan.traced && due == 0 && idx%7 == 0 {
		t := time.Now()
		err := r.snd.Send(b, slice)
		r.sendNs += int64(time.Since(t))
		r.sendN++
		return err
	}
	return r.snd.Send(b, slice)
}

var errStall = errors.New("closed loop stalled: no credit returned")

// closedLoop sends as fast as credits allow until stop reports true
// (checked once per credit block).
func (r *run) closedLoop(stop func() bool) error {
	for n := 1; ; n++ {
		if !r.win.acquire(stallPatience) {
			return errStall
		}
		if err := r.send(0); err != nil {
			return err
		}
		if n%creditBlock == 0 && stop() {
			return nil
		}
	}
}

// pacedPhase runs the open-loop schedule on a locked OS thread and returns
// how late each burst started.
func (r *run) pacedPhase() (late []int64, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p := pacer{start: time.Now().Add(time.Millisecond), interval: pacedInterval}
	n := p.bursts(r.plan.paced)
	late = make([]int64, 0, n)
	r.pacedFrom.Store(r.nextIdx)
	defer func() { r.pacedTo.Store(r.nextIdx) }()
	for k := 0; k < n; k++ {
		due := p.due(k)
		waitUntil(due)
		// The schedule is open-loop, but its backlog is finite, like a
		// front-end buffer: if the trio stalls (a vCPU taken away for
		// 100 ms does it), sending on regardless would overflow a socket
		// buffer and lose messages where no NAK can find them. The burst
		// waits instead; it keeps its due time, so the wait is in its
		// latency and in the generator's lateness.
		for r.outstanding() > pacedBacklog {
			time.Sleep(100 * time.Microsecond)
		}
		late = append(late, int64(time.Since(due)))
		for i := 0; i < pacedBurst; i++ {
			if err := r.send(due.UnixNano()); err != nil {
				return late, err
			}
		}
	}
	return late, nil
}

// outstanding is how many sent messages are neither delivered nor written
// off yet.
func (r *run) outstanding() uint64 { return r.nextIdx - r.good.Load() - r.bad.Load() }

// settle waits until nothing is outstanding. A dropped stream tail is
// invisible to the receiver until later traffic on the same stream shows
// the gap, so when progress stops it nudges with one more (counted,
// verified) message rather than waiting for a timeout that cannot come.
func (r *run) settle(patience time.Duration, nudge bool) bool {
	deadline := time.Now().Add(patience)
	left, moved := r.outstanding(), time.Now()
	for left > 0 {
		now := time.Now()
		if now.After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
		if l := r.outstanding(); l != left {
			left, moved = l, now
		} else if nudge && now.Sub(moved) > 20*time.Millisecond {
			if r.send(0) != nil {
				return false
			}
			left, moved = r.outstanding(), now
		}
	}
	return true
}

// sampler reads the gauges that only make sense as a time average, every
// 10 ms while on is set.
type sampler struct {
	on           atomic.Bool
	n            int64
	gaps, jrPend int64
	stop         chan struct{}
	wg           sync.WaitGroup
}

func (r *run) startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			if !s.on.Load() {
				continue
			}
			s.n++
			s.gaps += int64(r.rcv.OutstandingGaps())
			if r.plan.journal {
				p, _ := metrics.SampleValue(r.rlyReg.Snapshot(), metrics.MetricJournalPending)
				s.jrPend += p
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// runRound executes one round of w and returns what it measured. An error
// means the round could not be run at all (a socket would not open, the
// loop wedged, the kernel-batch path was not in use); oracle violations are
// reported in the result instead.
func runRound(w workload, plan roundPlan) (*roundResult, error) {
	steal0 := stealJiffies()
	built := time.Now()
	r, err := newRun(w, plan)
	if err != nil {
		return nil, err
	}
	defer r.close()
	probe, err := startSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()

	var smp *sampler
	if plan.traced {
		smp = r.startSampler()
		defer smp.finish()
	}

	// Warm-up and the closed-loop phase are one uninterrupted stream: the
	// window is full and the pipeline in steady state at both snapshots, so
	// the phase has no ramp to bias it.
	if err := r.closedLoop(func() bool { return r.good.Load() >= plan.warmup }); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	res := &roundResult{m: map[string]float64{}, caps: r.batchCaps(), traced: plan.traced, journal: plan.journal, fs: fsName(r.jrDir)}
	if fb := r.snd.BatchStats().Fallbacks + r.rly.BatchStats().Fallbacks + r.rcv.BatchStats().Fallbacks; fb > 0 {
		return nil, fmt.Errorf("%s: %d batch operations fell back off the kernel-batch path (caps %v): "+
			"this would measure a different datapath", w.name, fb, res.caps)
	}
	if smp != nil {
		smp.on.Store(true)
	}
	probe.take()
	c0 := r.snapshot()
	end := c0.at.Add(plan.closed)
	if err := r.closedLoop(func() bool { return !time.Now().Before(end) }); err != nil {
		return nil, fmt.Errorf("%s closed-loop phase: %w", w.name, err)
	}
	c1 := r.snapshot()
	// The probe runs with the closed loop only: in the paced phase it would
	// sit in front of the wake-ups the latencies are made of.
	probeUs, probeBusy := probe.take()
	probe.close()
	if smp != nil {
		smp.on.Store(false)
	}

	// Let the window empty so the paced phase starts on idle queues. No
	// nudging: the paced traffic itself will reveal a dropped tail.
	r.settle(50*time.Millisecond, false)
	pacedAt := time.Now()
	late, err := r.pacedPhase()
	if err != nil {
		return nil, fmt.Errorf("%s paced phase: %w", w.name, err)
	}
	settled := r.settle(settlePatience, true)

	if plan.traced {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.m["live.heap_live_mib"] = float64(ms.HeapAlloc) / (1 << 20)
	}
	last := r.snapshot()
	res.steal = last.steal - steal0
	res.wall = time.Since(built)
	r.close() // stops the read goroutine: ledger and latencies are ours now

	// The oracle and the conservation laws.
	res.attempted = r.nextIdx
	holes := r.led.holes(r.nextIdx)
	res.failed = max(holes, r.led.dups+r.led.corrupt)
	fail := func(format string, a ...any) { res.broken = append(res.broken, fmt.Sprintf(format, a...)) }
	if !settled {
		fail("%d messages still outstanding after %v", r.outstanding(), settlePatience)
	}
	if res.failed > 0 {
		fail("oracle: %d of %d not delivered intact exactly once (%d missing, %d duplicated to the application, %d corrupt, %d written off)",
			res.failed, res.attempted, holes, r.led.dups, r.led.corrupt, last.rcv.PermanentLoss)
	}
	if r.led.good != res.attempted-holes {
		fail("oracle: ledger counted %d good but its bitmaps hold %d", r.led.good, res.attempted-holes)
	}
	if last.snd.Sent != r.nextIdx || last.snd.Sent != last.rly.Upgraded {
		fail("conservation: generated %d, sender sent %d, relay upgraded %d", r.nextIdx, last.snd.Sent, last.rly.Upgraded)
	}
	if settled && last.rly.Upgraded != last.rcv.Delivered+last.rcv.PermanentLoss {
		fail("conservation: relay upgraded %d ≠ receiver delivered %d + written off %d",
			last.rly.Upgraded, last.rcv.Delivered, last.rcv.PermanentLoss)
	}
	if len(res.broken) > 0 && res.failed == 0 {
		res.failed = 1 // a broken law is a failure even when every payload arrived
	}

	// End-to-end: the plain definitions — delivered ÷ wall, CPU ÷ delivered,
	// time to the first timed phase — at the reference machine speed.
	msgs := float64(c1.good - c0.good)
	wall := c1.at.Sub(c0.at).Seconds()
	u0, s0 := cpuSeconds(&c0.ru)
	u1, s1 := cpuSeconds(&c1.ru)
	cpu := (u1 - u0) + (s1 - s0) - probeBusy.Seconds()
	slow := speedFactor(probeUs)
	slices.Sort(r.lat)
	slices.Sort(late)
	res.m["goodput_msgs_s"] = ratio(msgs, wall) * slow
	res.m["cpu_us_per_msg"] = ratio(cpu*1e6, msgs) / slow
	res.m["setup_s"] = c0.at.Sub(built).Seconds() / slow

	// Harness validity.
	res.m["bench.steal_frac"] = jiffies(res.steal) / res.wall.Seconds()
	res.m["bench.paced_lat_p50_us"] = float64(percentile(r.lat, 0.50)) / 1e3
	res.m["bench.paced_lat_p90_us"] = float64(percentile(r.lat, 0.90)) / 1e3
	res.m["bench.paced_lat_p99_us"] = float64(percentile(r.lat, 0.99)) / 1e3
	res.m["bench.paced_samples"] = float64(len(r.lat))
	res.m["bench.gen_late_p99_us"] = float64(percentile(late, 0.99)) / 1e3
	res.lateP90 = float64(percentile(late, 0.90))
	res.m["bench.machine_slowdown"] = slow

	r.layerCounts(res.m, &c0, &c1, &last, ratio(s1-s0, cpu))
	if plan.traced {
		r.layerTraced(res.m, &c0, &c1, smp, pacedAt)
	}
	return res, nil
}

// jiffies converts /proc/stat ticks (USER_HZ, 100 per second) to seconds.
func jiffies(n uint64) float64 { return float64(n) / 100 }
