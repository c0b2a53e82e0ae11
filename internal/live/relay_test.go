package live

// Flow-table and shard tests for the many-flow relay: registration and
// idle expiry, the crash-clears-flows invariant (no stale forward address
// survives a restart), per-flow NAK-service isolation across a crash, the
// multi-flow forward path's zero-alloc gate, the shared per-destination
// send (one per destination per GSO super-datagram, written as soon as
// one fills, each flow one contiguous run in it, exact per-flow credit, a
// bounded destination set), retransmissions riding the requester's queue
// and their zero-alloc gate, released buffers outliving mid-burst sends,
// eviction runs recorded when their burst ends, and a -race torture test
// hammering the one engine lock from many flows, scrapers and a crasher.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dmtp"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// mode0Pkt encodes a bare mode-0 data packet for one flow.
func mode0Pkt(t *testing.T, exp uint32, payload string) []byte {
	t.Helper()
	h := wire.Header{ConfigID: 0, Experiment: wire.NewExperimentID(exp, 0)}
	enc, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(enc, payload...)
}

// upgradedLen is the length of mode-0 packet pkt once the live relay has
// upgraded it: the core header and payload, plus the onward mode's
// extensions.
func upgradedLen(pkt []byte) int {
	extLen, _ := (wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked | wire.FeatTimely | wire.FeatTimestamped).ExtLen()
	return len(pkt) + extLen
}

// seqSink is a loopback socket that records the sequence number and
// experiment number of every datagram it reads, in arrival order (zero for
// one that does not check).
type seqSink struct {
	conn *net.UDPConn
	mu   sync.Mutex
	seqs []uint64
	exps []uint32
}

func newSeqSink(t *testing.T) *seqSink {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	c.SetReadBuffer(4 << 20)
	s := &seqSink{conn: c}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			n, _, err := c.ReadFromUDP(buf)
			if err != nil {
				return
			}
			var seq uint64
			var exp uint32
			v := wire.View(buf[:n])
			if _, err := v.Check(); err == nil {
				seq, _ = v.Seq()
				exp = uint32(v.Experiment()) >> 8
			}
			s.mu.Lock()
			s.seqs = append(s.seqs, seq)
			s.exps = append(s.exps, exp)
			s.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return s
}

// got returns the sequence numbers read so far.
func (s *seqSink) got() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.seqs)
}

// byExp returns the sequence numbers read so far, per experiment number.
func (s *seqSink) byExp() map[uint32][]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[uint32][]uint64)
	for i, exp := range s.exps {
		m[exp] = append(m[exp], s.seqs[i])
	}
	return m
}

// addr is the sink's address, as a NAK names its requester.
func (s *seqSink) addr(t *testing.T) wire.Addr {
	t.Helper()
	a, err := toWireAddr(s.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// waitSeqs waits until the sink has read n datagrams and returns their
// sequence numbers.
func (s *seqSink) waitSeqs(t *testing.T, n int) []uint64 {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool { return len(s.got()) >= n }, fmt.Sprintf("%d datagrams at the sink", n))
	return s.got()
}

// ascending reports whether seqs is from, from+1, …
func ascending(seqs []uint64, from uint64) bool {
	for i, seq := range seqs {
		if seq != from+uint64(i) {
			return false
		}
	}
	return true
}

// TestRelayFlowIdleExpiry drives the flow table on a fake clock: a flow
// idle past the engine's 60 s TTL is dropped by the sweep the next burst
// triggers, and counted in dmtp.relay.flows.expired.
func TestRelayFlowIdleExpiry(t *testing.T) {
	recv, err := NewReceiver(ReceiverConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	fc := dmtp.NewFakeClock(0)
	relay, err := NewRelay(RelayConfig{
		Listen:        "127.0.0.1:0",
		CapacityBytes: testCapacity,
		Forward:       recv.Addr(),
		Clock:         fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	sndA, err := NewSenderWithConfig(SenderConfig{Dst: relay.Addr(), Experiment: 701})
	if err != nil {
		t.Fatal(err)
	}
	defer sndA.Close()
	if err := sndA.Send([]byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return relay.FlowStats().Active == 1 }, "flow A registration")

	// 61 fake seconds of idleness, then a packet on a second flow: the
	// burst triggers the sweep, which must expire only the idle flow.
	fc.AdvanceTo(int64(61 * time.Second))
	sndB, err := NewSenderWithConfig(SenderConfig{Dst: relay.Addr(), Experiment: 702})
	if err != nil {
		t.Fatal(err)
	}
	defer sndB.Close()
	if err := sndB.Send([]byte("b"), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return relay.FlowStats().Expired == 1 }, "flow A expiry")

	fs := relay.FlowStats()
	if fs.Active != 1 || fs.Opened != 2 {
		t.Fatalf("flow stats after expiry: %+v", fs)
	}
	flows := relay.Flows()
	if len(flows) != 1 || flows[0].Experiment != wire.NewExperimentID(702, 0) {
		t.Fatalf("surviving flows: %+v", flows)
	}
}

// TestRelayCrashClearsFlowsAndReResolves runs two concurrent flows to one
// receiver through a crash. Before the crash each flow recovers its own
// injected drops through per-flow NAK service. Crash must empty the flow
// table; after Restart the flows re-register on their next packets, and
// each flow's NAK service keeps working against the rebuilt table without
// touching the other flow's stream.
func TestRelayCrashClearsFlowsAndReResolves(t *testing.T) {
	const expA, expB = 777, 888
	var mu sync.Mutex
	delivered, recovered := map[uint32]int{}, map[uint32]int{}
	recv, err := NewReceiver(ReceiverConfig{
		Listen:   "127.0.0.1:0",
		NAKDelay: 2 * time.Millisecond,
		NAKRetry: 10 * time.Millisecond,
		MaxNAKs:  10,
		OnMessage: func(m Message) {
			exp := uint32(m.Experiment) >> 8
			mu.Lock()
			defer mu.Unlock()
			delivered[exp]++
			if m.Recovered {
				recovered[exp]++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	// counts reports each flow's deliveries and recoveries so far.
	counts := func() (dA, dB, rA, rB int) {
		mu.Lock()
		defer mu.Unlock()
		return delivered[expA], delivered[expB], recovered[expA], recovered[expB]
	}

	relay, err := NewRelay(RelayConfig{
		Listen:        "127.0.0.1:0",
		CapacityBytes: testCapacity,
		Forward:       recv.Addr(),
		Shards:        2,
		MaxAge:        5 * time.Second,
		DropEveryN:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	sndA, err := NewSenderWithConfig(SenderConfig{Dst: relay.Addr(), Experiment: expA})
	if err != nil {
		t.Fatal(err)
	}
	defer sndA.Close()
	sndB, err := NewSenderWithConfig(SenderConfig{Dst: relay.Addr(), Experiment: expB})
	if err != nil {
		t.Fatal(err)
	}
	defer sndB.Close()

	send := func(s *Sender, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.Send([]byte(fmt.Sprintf("m-%04d", i)), 0); err != nil {
				t.Fatal(err)
			}
			if i%20 == 19 {
				time.Sleep(time.Millisecond) // mode 0 is unreliable; don't outrun loopback
			}
		}
	}
	// settled waits until each flow has delivered n messages with no gap
	// open, and checks that each recovered at least rec more than the
	// counts in from (its own injected drops; loopback may lose more). It
	// returns the recovered counts.
	settled := func(n, rec int, from [2]int, phase string) [2]int {
		t.Helper()
		waitFor(t, 10*time.Second, func() bool {
			dA, dB, _, _ := counts()
			return dA == n && dB == n && recv.OutstandingGaps() == 0
		}, phase+" delivery on both flows")
		dA, dB, rA, rB := counts()
		if dA != n || dB != n || rA-from[0] < rec || rB-from[1] < rec {
			t.Fatalf("%s: delivered A %d, B %d; recovered A %d, B %d (from %v); want %d delivered and %d more recovered per flow",
				phase, dA, dB, rA, rB, from, n, rec)
		}
		return [2]int{rA, rB}
	}

	// Phase 1: 45 messages per flow; seqs 10/20/30/40 of each are dropped
	// at the relay and recovered by that flow's own NAKs.
	send(sndA, 45)
	send(sndB, 45)
	rec := settled(45, 4, [2]int{}, "phase-1")
	if fs := relay.FlowStats(); fs.Active != 2 || fs.Opened != 2 {
		t.Fatalf("phase-1 flow stats: %+v", fs)
	}
	for _, f := range relay.Flows() {
		if f.Upgraded != 45 || f.Dst != recv.Addr() {
			t.Fatalf("flow %v upgraded %d to %s, want 45 to %s", f.Experiment, f.Upgraded, f.Dst, recv.Addr())
		}
	}

	// Crash: the flow table must be emptied, not kept for Restart.
	relay.Crash()
	if n := len(relay.Flows()); n != 0 {
		t.Fatalf("%d flows survived the crash", n)
	}
	if fs := relay.FlowStats(); fs.Active != 0 {
		t.Fatalf("flow stats after crash: %+v", fs)
	}
	if err := relay.Restart(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: 23 more per flow (seqs 46..68; 50 and 60 are dropped and
	// must be recovered from the post-restart stash, per flow).
	send(sndA, 23)
	send(sndB, 23)
	settled(68, 2, rec, "phase-2")
	if fs := relay.FlowStats(); fs.Active != 2 || fs.Opened != 4 {
		t.Fatalf("phase-2 flow stats: %+v", fs)
	}
}

// TestRelayMultiFlowForwardAllocs gates the multi-flow forward fast path:
// once warm, ingesting and forwarding a burst that spans five flows on
// two shards, one of them traced — flow lookup, the compiled upgrade into a
// stash buffer from the relay's stash log, the shared destination queue, one batched flush,
// periodic cumulative trim — performs zero allocations, and on the kernel
// path the five flows' one destination costs one write syscall per burst. The burst is driven
// directly through the engine (the loop goroutine stays parked in its
// read syscall), exactly the per-packet work the receive loop performs.
func TestRelayMultiFlowForwardAllocs(t *testing.T) {
	// AllocsPerRun counts the whole process, so the forward leg lands on
	// a plain socket nobody reads (forwarding is fire-and-forget): a live
	// Receiver here would allocate per delivery whenever its goroutine
	// got scheduled inside the measurement.
	sink, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	relay, err := NewRelay(RelayConfig{
		Listen:        "127.0.0.1:0",
		CapacityBytes: testCapacity,
		Forward:       sink.LocalAddr().String(),
		Shards:        2,
		MaxAge:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	type flow struct {
		exp wire.ExperimentID
		pkt []byte
		src wire.Addr
	}
	payload := bytes.Repeat([]byte("alloc-gate"), 8)
	flows := make([]flow, 5)
	for i := range flows {
		exp := uint32(801 + i)
		flows[i] = flow{
			exp: wire.NewExperimentID(exp, 0),
			pkt: mode0Pkt(t, exp, string(payload)),
			src: wire.AddrFrom(10, 0, 0, byte(1+i), 4000),
		}
	}
	// The last flow arrives traced: a second upgrade recipe, and a hop
	// stamp on every packet. Its payload is shorter by the trace extension's
	// 40 bytes, so all five upgrade to one size and stay one GSO run.
	traced := wire.Header{Features: wire.FeatTraced, Experiment: flows[4].exp,
		Trace: wire.TraceExt{TraceID: 1, Flags: wire.TraceSampledFlag, HopCount: 1}}
	enc, err := traced.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	flows[4].pkt = append(enc, payload[40:]...)

	seq := uint64(0)
	burst := func() {
		seq++
		relay.engMu.Lock()
		defer relay.engMu.Unlock()
		for _, f := range flows {
			relay.eng.Handle(f.src, f.pkt, 0)
		}
		relay.flush()
		if seq%16 == 0 {
			// Cumulative trim releases the stash back to the stash log,
			// as a downstream ACK would — without it the stash grows and
			// every upgrade must allocate a fresh buffer.
			for _, f := range flows {
				relay.eng.Buffer().Trim(f.exp, seq)
			}
		}
	}
	for i := 0; i < 64; i++ {
		burst() // warm: flow registration, ring growth, pool population
	}

	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Fatalf("multi-flow forward allocates %.2f allocs per burst, want 0", avg)
	}

	if !relay.BatchCaps().Mmsg {
		return // the portable path counts no syscalls
	}
	const bursts = 16
	before := relay.BatchStats()
	for i := 0; i < bursts; i++ {
		burst()
	}
	after := relay.BatchStats()
	if got := after.Syscalls - before.Syscalls; got != bursts {
		t.Fatalf("%d write syscalls for %d five-flow bursts to one destination, want one per burst", got, bursts)
	}
	if got := after.SentPackets - before.SentPackets; got != uint64(len(flows)*bursts) {
		t.Fatalf("sent %d packets, want %d", got, len(flows)*bursts)
	}
}

// TestRelayMixedSizeFlowsShareDestination interleaves a 1 KiB flow and a
// 256 B flow to one destination, A1 B1 A2 B2 …: the shared send still
// carries each flow as one run, so on the kernel path a burst costs at
// most two write syscalls — one GSO run per flow, as with a queue per
// flow. Sending in arrival order would cut a GSO run at every size
// change: one syscall per pair. A burst too large for one super-datagram
// is held to one run per flow per super-datagram sent.
func TestRelayMixedSizeFlowsShareDestination(t *testing.T) {
	const (
		perFlow = 8
		bursts  = 16
	)
	sink, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	relay, err := NewRelay(RelayConfig{
		Listen:        "127.0.0.1:0",
		CapacityBytes: testCapacity,
		Forward:       sink.LocalAddr().String(),
		MaxAge:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	caps := relay.BatchCaps()
	if !caps.Mmsg {
		t.Skip("portable path: no write syscalls to count")
	}

	big := mode0Pkt(t, 821, string(bytes.Repeat([]byte{'a'}, 1024)))
	small := mode0Pkt(t, 822, string(bytes.Repeat([]byte{'b'}, 256)))
	srcA, srcB := wire.AddrFrom(10, 0, 0, 1, 4000), wire.AddrFrom(10, 0, 0, 2, 4000)
	before := relay.BatchStats()
	for b := 0; b < bursts; b++ {
		relay.engMu.Lock()
		for i := 0; i < perFlow; i++ {
			relay.eng.Handle(srcA, big, 0)
			relay.eng.Handle(srcB, small, 0)
		}
		relay.flush()
		relay.engMu.Unlock()
	}
	after := relay.BatchStats()
	if got := after.SentPackets - before.SentPackets; got != 2*perFlow*bursts {
		t.Fatalf("sent %d packets, want %d", got, 2*perFlow*bursts)
	}
	if got := after.Syscalls - before.Syscalls; got > 2*bursts {
		t.Fatalf("%d write syscalls for %d bursts of two interleaved flow sizes, want at most %d", got, bursts, 2*bursts)
	}
	if caps.GSO {
		if got := after.GSOSegments - before.GSOSegments; got != 2*perFlow*bursts {
			t.Fatalf("%d of %d packets rode GSO", got, 2*perFlow*bursts)
		}
	}

	// 64 + 64 interleaved in one burst: the destination's super-datagram
	// fills after 32 of each flow, which go in one send, and flush sends
	// the other 64. One write of the whole burst at its end took 3
	// syscalls: a 59-packet run of 1 KiB, the other 5 closed by one 256 B
	// packet, then the 63 left.
	before = relay.BatchStats()
	relay.engMu.Lock()
	for i := 0; i < maxGSOSegs; i++ {
		relay.eng.Handle(srcA, big, 0)
		relay.eng.Handle(srcB, small, 0)
	}
	relay.flush()
	relay.engMu.Unlock()
	after = relay.BatchStats()
	if got := after.SentPackets - before.SentPackets; got != 2*maxGSOSegs {
		t.Fatalf("sent %d packets, want %d", got, 2*maxGSOSegs)
	}
	if caps.GSO {
		const flows, sends = 2, 2
		if got := after.Syscalls - before.Syscalls; got > flows*sends {
			t.Fatalf("%d write syscalls for %d + %d interleaved packets, want at most one run per flow per super-datagram sent, %d", got, maxGSOSegs, maxGSOSegs, flows*sends)
		}
	}
}

// TestRelayCutThrough hands 129 packets to the relay under the engine
// lock without ending the burst. The destination is written each time its
// queue holds a full GSO super-datagram — 64 packets of 256 B, or as many
// 1 KiB packets as maxGSOBytes allows — so the sink holds two of them
// before flush, and flush writes the rest. That is three write syscalls,
// what one write of the whole burst at its end costs, whether the packets
// belong to one flow or round-robin over 64 flows sharing the queue; and
// the sink reads each flow's sequence numbers ascending.
func TestRelayCutThrough(t *testing.T) {
	const burst = 2*maxGSOSegs + 1
	for _, tc := range []struct{ size, flows int }{{256, 1}, {1024, 1}, {256, 64}} {
		name := fmt.Sprintf("%dB", tc.size)
		if tc.flows > 1 {
			name += fmt.Sprintf("-%dflows", tc.flows)
		}
		t.Run(name, func(t *testing.T) {
			sink := newSeqSink(t)
			relay, err := NewRelay(RelayConfig{
				Listen:        "127.0.0.1:0",
				CapacityBytes: testCapacity,
				Forward:       sink.conn.LocalAddr().String(),
				MaxAge:        time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer relay.Close()
			if !relay.BatchCaps().GSO {
				t.Skip("no GSO: a super-datagram is not one write")
			}
			pkts := make([][]byte, tc.flows)
			for i := range pkts {
				pkts[i] = mode0Pkt(t, uint32(831+i), string(bytes.Repeat([]byte{'c'}, tc.size)))
			}
			perSend := min(maxGSOSegs, maxGSOBytes/upgradedLen(pkts[0]))
			src := wire.AddrFrom(10, 0, 0, 1, 4000)
			// inOrder reports whether every flow's sequence numbers in m
			// ascend from 1.
			inOrder := func(m map[uint32][]uint64) bool {
				for _, seqs := range m {
					if !ascending(seqs, 1) {
						return false
					}
				}
				return true
			}

			before := relay.BatchStats()
			relay.engMu.Lock()
			for i := 0; i < burst; i++ {
				relay.eng.Handle(src, pkts[i%tc.flows], 0)
			}
			mid := relay.BatchStats()
			if got := mid.SentPackets - before.SentPackets; got != uint64(2*perSend) {
				t.Fatalf("%d of %d packets written before the burst ended, want two super-datagrams of %d", got, burst, perSend)
			}
			sink.waitSeqs(t, 2*perSend)
			early := sink.byExp()
			relay.flush()
			relay.engMu.Unlock()

			after := relay.BatchStats()
			if got := after.SentPackets - before.SentPackets; got != burst {
				t.Fatalf("sent %d packets, want %d", got, burst)
			}
			if got := after.Syscalls - before.Syscalls; got != 3 {
				t.Fatalf("%d write syscalls for a burst of %d over %d flows, want 3", got, burst, tc.flows)
			}
			sink.waitSeqs(t, burst)
			if seqs := sink.byExp(); len(sink.got()) != burst || len(seqs) != tc.flows || !inOrder(seqs) || !inOrder(early) {
				t.Fatalf("sink read %v (%v before flush), want %d flows each ascending from 1, %d packets in all", seqs, early, tc.flows, burst)
			}
		})
	}
}

// TestRelayRecordsEvictionRunAtBurstEnd: the relay records a burst's
// eviction run when the burst's lock hold ends, so the flight recorder
// holds it once the evicting packets have been forwarded, with no stats
// read or scrape in between; a later Stats call finds nothing pending.
func TestRelayRecordsEvictionRunAtBurstEnd(t *testing.T) {
	const n = 64
	sink := newSeqSink(t)
	rec := metrics.NewFlightRecorder(0)
	relay, err := NewRelay(RelayConfig{
		Listen:        "127.0.0.1:0",
		CapacityBytes: 16 << 10,
		Forward:       sink.conn.LocalAddr().String(),
		MaxAge:        time.Hour,
		Recorder:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	conn, err := net.Dial("udp4", relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pkt := mode0Pkt(t, 832, string(bytes.Repeat([]byte{'e'}, 1000)))
	for range n {
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	sink.waitSeqs(t, n)

	// The sink has read every packet, so every hold that evicted has
	// ended; taking the lock orders the reads below after the last one.
	relay.engMu.Lock()
	var runs, evicted uint64
	for _, ev := range rec.Snapshot() {
		if ev.Kind == metrics.EvEvict {
			runs++
			evicted += ev.Aux
		}
	}
	total := rec.Total()
	relay.engMu.Unlock()
	if runs == 0 {
		t.Fatalf("no evict event in %d recorded after %d packets of %d B into a 16 KiB stash", total, n, len(pkt))
	}
	if st := relay.Stats(); evicted != st.Evicted {
		t.Fatalf("evict events before the stats read sum to %d, Evicted is %d", evicted, st.Evicted)
	}
	if got := rec.Total(); got != total {
		t.Fatalf("the stats read recorded %d more events: a run was still pending", got-total)
	}
}

// TestRelayRetransmitsRideTheQueue: a NAK from a requester the relay
// already forwards to queues its retransmissions on that destination,
// ahead of the forwards queued in the same burst, so k retransmissions
// cost ⌈k/64⌉ writes rather than k. A NAK from any other requester is
// still served, written at once.
func TestRelayRetransmitsRideTheQueue(t *testing.T) {
	const k = 100
	sink, other := newSeqSink(t), newSeqSink(t)
	relay, err := NewRelay(RelayConfig{
		Listen:        "127.0.0.1:0",
		CapacityBytes: testCapacity,
		Forward:       sink.conn.LocalAddr().String(),
		MaxAge:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	if !relay.BatchCaps().GSO {
		t.Skip("no GSO: a super-datagram is not one write")
	}
	exp := wire.NewExperimentID(841, 0)
	pkt := mode0Pkt(t, 841, string(bytes.Repeat([]byte{'r'}, 256)))
	src := wire.AddrFrom(10, 0, 0, 1, 4000)
	burst := func(pkts ...[]byte) {
		relay.engMu.Lock()
		defer relay.engMu.Unlock()
		for _, p := range pkts {
			relay.eng.Handle(src, p, 0)
		}
		relay.flush()
	}
	nak := func(requester wire.Addr, from, to uint64) []byte {
		enc, err := (&wire.NAK{Experiment: exp, Requester: requester, Ranges: []wire.SeqRange{{From: from, To: to}}}).AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = pkt
	}
	burst(data...)
	sink.waitSeqs(t, k)

	before := relay.BatchStats()
	burst(nak(sink.addr(t), 1, k))
	if got := relay.BatchStats().Syscalls - before.Syscalls; got != (k+maxGSOSegs-1)/maxGSOSegs {
		t.Fatalf("%d write syscalls for a NAK of %d held packets, want %d", got, k, (k+maxGSOSegs-1)/maxGSOSegs)
	}
	if seqs := sink.waitSeqs(t, 2*k); len(seqs) != 2*k || !ascending(seqs[k:], 1) {
		t.Fatalf("retransmissions reached the sink as %v, want 1..%d", seqs[k:], k)
	}

	// A forward and then a NAK in one burst: one write, retransmission first.
	burst(pkt, nak(sink.addr(t), 1, 2))
	if seqs := sink.waitSeqs(t, 2*k+3); !slices.Equal(seqs[2*k:], []uint64{1, 2, k + 1}) {
		t.Fatalf("burst of forward %d and NAK 1..2 reached the sink as %v, want [1 2 %d]", k+1, seqs[2*k:], k+1)
	}

	// A requester the relay does not forward to: served at once, nothing
	// through the batch path.
	rtx := relay.Stats().Retransmits
	before = relay.BatchStats()
	burst(nak(other.addr(t), 1, k))
	if seqs := other.waitSeqs(t, k); len(seqs) != k || !ascending(seqs, 1) {
		t.Fatalf("the other requester got %v, want 1..%d", seqs, k)
	}
	if got := relay.Stats().Retransmits - rtx; got != k {
		t.Fatalf("%d retransmissions to the other requester, want %d", got, k)
	}
	if got := relay.BatchStats().Syscalls - before.Syscalls; got != 0 {
		t.Fatalf("%d batched writes for the other requester, want 0", got)
	}
	if st := relay.Stats(); st.TxErrors != 0 {
		t.Fatalf("%d tx errors", st.TxErrors)
	}
}

// TestRelayFlushCreditsAcceptedPrefix checks the forward leg's per-flow
// accounting when a shared write fails part-way. Flows A, B and C share
// the one forward address; over the portable path a stub socket accepts k
// packets and fails the rest. The shared write carries each flow's
// packets contiguously, each flow is credited exactly its packets in the
// accepted prefix, the unsent tail is counted as tx errors, and
// upgraded = forwarded + injected drops + tx errors.
func TestRelayFlushCreditsAcceptedPrefix(t *testing.T) {
	const (
		expA, expB, expC = 501, 502, 503
		rounds           = 4
	)
	fwd := netip.MustParseAddrPort("127.0.0.1:9")
	// DropEveryN 3 withholds each flow's seq 3, so the burst arrives as
	// A1 B1 C1 A2 B2 C2 A4 B4 C4 and leaves as A1 A2 A4 B1 B2 B4 C1 C2 C4.
	order := []uint32{expA, expA, expA, expB, expB, expB, expC, expC, expC}
	for _, tc := range []struct {
		failFrom int
		want     map[uint32]uint64 // forwarded per experiment
	}{
		{4, map[uint32]uint64{expA: 3, expB: 1, expC: 0}},
		{7, map[uint32]uint64{expA: 3, expB: 3, expC: 1}},
	} {
		t.Run(fmt.Sprintf("fail-after-%d", tc.failFrom), func(t *testing.T) {
			relay, err := NewRelay(RelayConfig{
				Listen:        "127.0.0.1:0",
				CapacityBytes: testCapacity,
				Forward:       fwd.String(),
				MaxAge:        time.Hour,
				DropEveryN:    3,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer relay.Close()
			reg := metrics.NewRegistry()
			relay.RegisterMetrics(reg)

			stub := newStubConn()
			stub.failFrom = tc.failFrom
			relay.mu.Lock()
			relay.engMu.Lock()
			relay.bc = newBatchConn(stub, &relay.bstats, false)
			relay.engMu.Unlock()
			relay.mu.Unlock()

			relay.engMu.Lock()
			for i := 0; i < rounds; i++ {
				for k, exp := range []uint32{expA, expB, expC} {
					relay.eng.Handle(wire.AddrFrom(10, 0, 0, byte(1+k), 4000), mode0Pkt(t, exp, "x"), 0)
				}
			}
			relay.flush()
			relay.engMu.Unlock()

			// What the stub accepted, in what order, per flow, and where
			// it went.
			wrote := make(map[uint32]uint64)
			for i, p := range stub.written {
				exp := uint32(wire.View(p).Experiment()) >> 8
				if exp != order[i] {
					t.Errorf("write %d carried experiment %d, want %d (each flow contiguous: %v)", i, exp, order[i], order)
				}
				wrote[exp]++
				if stub.to[i] != fwd {
					t.Errorf("experiment %d's packet went to %v, want %v", exp, stub.to[i], fwd)
				}
			}
			var forwarded uint64
			for _, f := range relay.Flows() {
				exp := uint32(f.Experiment) >> 8
				if f.Forwarded != tc.want[exp] || f.Forwarded != wrote[exp] {
					t.Errorf("experiment %d: Forwarded %d, stub accepted %d, want %d", exp, f.Forwarded, wrote[exp], tc.want[exp])
				}
				forwarded += f.Forwarded
			}
			st := relay.Stats()
			if st.Forwarded != forwarded || forwarded != uint64(tc.failFrom) {
				t.Errorf("RelayStats.Forwarded %d, flows sum to %d, want %d", st.Forwarded, forwarded, tc.failFrom)
			}
			emitted := uint64(3 * (rounds - 1)) // each flow's seq 3 is withheld
			// dmtp.live.tx.errors is a gauge of the relay's set, read from
			// a snapshot: asking the registry for a counter of that name
			// would make a second, empty instrument.
			sample, _ := metrics.SampleValue(reg.Snapshot(), metrics.MetricLiveTxErrors)
			txErrs := uint64(sample)
			if txErrs != st.TxErrors || txErrs != emitted-uint64(tc.failFrom) {
				t.Errorf("tx errors: sample %d, stats %d, want %d", txErrs, st.TxErrors, emitted-uint64(tc.failFrom))
			}
			if st.Upgraded != 3*rounds || st.InjectedDrops != 3 || st.Upgraded != st.Forwarded+st.InjectedDrops+txErrs {
				t.Errorf("upgraded %d != forwarded %d + injected drops %d + tx errors %d", st.Upgraded, st.Forwarded, st.InjectedDrops, txErrs)
			}
		})
	}
}

// TestRelayRetransmitAllocs gates the control send: once warm, serving a
// NAK — decode, stash lookup, the retransmission queued on the requester's
// destination by relayDatapath and the flush that writes it — allocates
// nothing.
func TestRelayRetransmitAllocs(t *testing.T) {
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	relay, err := NewRelay(RelayConfig{
		Listen:        "127.0.0.1:0",
		CapacityBytes: testCapacity,
		Forward:       sink.LocalAddr().String(),
		MaxAge:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	requester, err := toWireAddr(sink.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	exp := wire.NewExperimentID(811, 0)
	relay.engMu.Lock()
	relay.eng.Handle(wire.AddrFrom(10, 0, 0, 1, 4000), mode0Pkt(t, 811, "stashed"), 0)
	relay.flush()
	relay.engMu.Unlock()
	nak, err := (&wire.NAK{Experiment: exp, Requester: requester, Ranges: []wire.SeqRange{{From: 1, To: 1}}}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	retransmit := func() {
		relay.engMu.Lock()
		relay.eng.Handle(requester, nak, 0)
		relay.flush()
		relay.engMu.Unlock()
	}
	retransmit() // warm: the NAK decode target's ranges
	if avg := testing.AllocsPerRun(100, retransmit); avg != 0 {
		t.Fatalf("a NAK retransmission allocates %.2f, want 0", avg)
	}
	if st := relay.Stats(); st.Retransmits != 102 || st.TxErrors != 0 {
		t.Fatalf("retransmits %d, tx errors %d; want 102 and 0", st.Retransmits, st.TxErrors)
	}
}

// TestRelayStashLogPinnedSegments holds the relay's stash log to what it
// promises when the arena runs out. One experiment is never trimmed and
// another is trimmed every 16 packets, interleaved, so the untrimmed one's
// old entries pin segments whose other entries are long gone, and the
// live entries span more segments than the arena has. Upgrades then fall
// back to heap buffers: every packet is still forwarded intact, every
// held one still NAK-servable, and the fallbacks show in wire.pool.*.
// Crash releases every entry, leaving every segment empty, and the
// upgrades after Restart are carved from the arena again.
func TestRelayStashLogPinnedSegments(t *testing.T) {
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	sink.SetReadBuffer(4 << 20)
	// The arena is this plus an eighth: two 256 KiB segments.
	const capacity = 448 << 10
	relay, err := NewRelay(RelayConfig{
		Listen:        "127.0.0.1:0",
		Forward:       sink.LocalAddr().String(),
		CapacityBytes: capacity,
		MaxAge:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	reg := metrics.NewRegistry()
	relay.RegisterMetrics(reg)
	gauge := func(name string) int64 {
		for _, s := range reg.Snapshot() {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("%s not registered", name)
		return 0
	}

	const (
		pinned, trimmed = 821, 822
		perExp          = 1500
	)
	// Message i of an experiment is i, then 1000 bytes only it produces.
	msg := func(exp uint32, i uint64) []byte {
		m := binary.BigEndian.AppendUint64(nil, i)
		for j := 0; j < 1000; j++ {
			m = append(m, byte(uint64(exp)+i*131+uint64(j)*7))
		}
		return m
	}
	// The sink checks every datagram, forward or retransmission: intact
	// header, the payload its index implies, the sequence number the relay
	// gave that index (index + 1).
	var mu sync.Mutex
	var got int
	var bad []string
	sinkDone := make(chan struct{})
	defer func() {
		sink.Close()
		<-sinkDone
	}()
	go func() {
		defer close(sinkDone)
		buf := make([]byte, 2048)
		for {
			n, _, err := sink.ReadFromUDP(buf)
			if err != nil {
				return
			}
			why := ""
			v := wire.View(buf[:n])
			if _, err := v.Check(); err != nil {
				why = err.Error()
			} else if seq, err := v.Seq(); err != nil {
				why = err.Error()
			} else if p := v.Payload(); len(p) < 8 || !bytes.Equal(p, msg(v.Experiment().Experiment(), binary.BigEndian.Uint64(p))) {
				why = fmt.Sprintf("seq %d carries a payload no message has", seq)
			} else if i := binary.BigEndian.Uint64(p); seq != i+1 {
				why = fmt.Sprintf("seq %d carries message %d", seq, i)
			}
			mu.Lock()
			got++
			if why != "" && len(bad) < 5 {
				bad = append(bad, why)
			}
			mu.Unlock()
		}
	}()
	sinkSaw := func(want int) {
		t.Helper()
		waitFor(t, 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return got >= want
		}, "the sink to catch up")
	}

	src := wire.AddrFrom(10, 0, 0, 1, 4000)
	acker, err := toWireAddr(sink.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	handle := func(from wire.Addr, pkt []byte) {
		relay.engMu.Lock()
		defer relay.engMu.Unlock()
		relay.eng.Handle(from, pkt, 0)
		relay.flush()
	}
	upgrade := func(exp uint32, i uint64) {
		enc, err := (&wire.Header{Experiment: wire.NewExperimentID(exp, 0)}).AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		handle(src, append(enc, msg(exp, i)...))
	}
	ack := func(exp uint32, seq uint64) {
		pkt, _ := (&wire.Ack{Experiment: wire.NewExperimentID(exp, 0), CumulativeSeq: seq, Acker: acker}).AppendTo(nil)
		handle(acker, pkt)
	}
	for i := uint64(0); i < perExp; i++ {
		upgrade(pinned, i)
		upgrade(trimmed, i)
		if (i+1)%16 == 0 {
			ack(trimmed, i+1)
			sinkSaw(int(2 * (i + 1)))
		}
	}
	ack(trimmed, perExp)
	sinkSaw(2 * perExp)

	st := relay.Stats()
	if st.Forwarded != 2*perExp || st.TxErrors != 0 {
		t.Fatalf("forwarded %d of %d, %d tx errors", st.Forwarded, 2*perExp, st.TxErrors)
	}
	if st.Trimmed != perExp || st.Evicted == 0 {
		t.Fatalf("trimmed %d, evicted %d; want %d trimmed and some evicted", st.Trimmed, st.Evicted, perExp)
	}
	misses, hits := gauge(metrics.MetricPoolMisses), gauge(metrics.MetricPoolHits)
	if misses == 0 || hits == 0 || misses+hits != gauge(metrics.MetricPoolGets) {
		t.Fatalf("wire.pool.* gets %d, hits %d, misses %d; want both hits and fallbacks",
			gauge(metrics.MetricPoolGets), hits, misses)
	}

	// NAK the pinned experiment's every number, 64 at a time: each one
	// held, whether carved from the arena or a fallback, comes back intact.
	held := st.Buffered - st.Evicted - st.Trimmed
	want := 2 * perExp
	for from := uint64(1); from <= perExp; from += 64 {
		nak, err := (&wire.NAK{Experiment: wire.NewExperimentID(pinned, 0), Requester: acker,
			Ranges: []wire.SeqRange{{From: from, To: min(from+63, perExp)}}}).AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		before := relay.Stats().Retransmits
		handle(acker, nak)
		want += int(relay.Stats().Retransmits - before)
		sinkSaw(want)
	}
	if st := relay.Stats(); st.Retransmits != held || st.Misses != perExp-held {
		t.Fatalf("NAKs served %d and missed %d, want the %d held served and the rest missed", st.Retransmits, st.Misses, held)
	}
	mu.Lock()
	if len(bad) > 0 || got != want {
		t.Fatalf("sink saw %d datagrams, want %d; first faults: %q", got, want, bad)
	}
	mu.Unlock()

	relay.Crash()
	relay.engMu.Lock()
	inUse := relay.stash.Held()
	relay.engMu.Unlock()
	if inUse != 0 {
		t.Fatalf("%d segments still held after the crash released every entry", inUse)
	}
	if err := relay.Restart(); err != nil {
		t.Fatal(err)
	}
	hits = gauge(metrics.MetricPoolHits)
	upgrade(pinned, perExp)
	upgrade(trimmed, perExp)
	if h := gauge(metrics.MetricPoolHits); h != hits+2 {
		t.Fatalf("the upgrades after Restart carved %d entries from the arena, want 2", h-hits)
	}
}

// TestRelayShardTortureManyFlows hammers the relay from many concurrent
// flows while other goroutines scrape every introspection surface and
// crash and restart it — the -race gate for the one-lock discipline.
// Experiments are picked so they all hash to shard 0 of 4: one stash FIFO
// and one flow table under maximum churn, with the other shards idle.
func TestRelayShardTortureManyFlows(t *testing.T) {
	recv, err := NewReceiver(ReceiverConfig{
		Listen:   "127.0.0.1:0",
		NAKDelay: 50 * time.Millisecond,
		MaxNAKs:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	relay, err := NewRelay(RelayConfig{
		Listen:        "127.0.0.1:0",
		CapacityBytes: testCapacity,
		Forward:       recv.Addr(),
		Shards:        4,
		MaxAge:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	reg := metrics.NewRegistry()
	relay.RegisterMetrics(reg)

	// Collect experiment numbers that all land on shard 0: six to torture
	// with, six more for the quiet round afterwards.
	var exps []uint32
	for e := uint32(900); len(exps) < 12; e++ {
		if relay.eng.Buffer().ShardIndex(wire.NewExperimentID(e, 0)) == 0 {
			exps = append(exps, e)
		}
	}
	torture, quiet := exps[:6], exps[6:]

	// flood sends n messages for every experiment, each from its own sender
	// goroutine, and returns what the sends reported.
	flood := func(exps []uint32, n int) error {
		var wg sync.WaitGroup
		errs := make([]error, len(exps))
		for i, exp := range exps {
			snd, err := NewSenderWithConfig(SenderConfig{
				Dst:        relay.Addr(),
				Experiment: exp,
				BatchSize:  16,
			})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer snd.Close()
				for k := 0; k < n; k++ {
					if err := snd.Send([]byte("torture"), 0); err != nil {
						errs[i] = err
					}
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}

	// Concurrent scrapers and a crasher: the introspection surfaces and the
	// lifecycle calls must be safe while the relay is hot.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	background := func(f func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	background(func() {
		_ = relay.Flows()
		_ = relay.FlowStats()
		_ = relay.Stats()
		_ = reg.Snapshot()
	})
	background(func() {
		relay.Crash()
		if err := relay.Restart(); err != nil {
			t.Errorf("restart: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	})
	_ = flood(torture, 500) // a flush into a crashed relay is refused; the crasher's doing
	close(stop)
	bg.Wait()

	// The relay is up again: every flow of a quiet round registers (packets
	// the torture left in the socket cannot stand in for them — they carry
	// other experiments), each on the shard it was picked for.
	if err := flood(quiet, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		n := 0
		for _, f := range relay.Flows() {
			if f.Shard != 0 {
				t.Fatalf("flow %v landed on shard %d, want 0", f.Experiment, f.Shard)
			}
			if f.Experiment >= wire.NewExperimentID(quiet[0], 0) {
				n++
			}
		}
		return n == len(quiet)
	}, "post-torture round registered")
}

// TestRelayBurstForwardOutlivesRelease guards the one aliasing the live
// relay has: its destination queues hold references into stash buffers
// until they are written, mid-burst or at the flush that ends it, and the
// engine may let a buffer go — an eviction, a cumulative-ACK trim — while
// it is still queued. Released buffers are poisoned here before they go
// back to the relay's stash log, so a buffer recycled ahead of its write
// reaches the sink as poison, whether or not the log carves it again
// first.
//
// Each round is queued on the relay's (unwrapped, kernel-batched) socket
// while the test holds the engine lock — a relay descheduled for a moment —
// so the relay meets it as real bursts: at most one short read it made
// before blocking, then everything else. A round is more than one
// super-datagram, so trims and evictions also land after mid-burst sends.
// The mid-burst case then pins the order down packet by packet.
func TestRelayBurstForwardOutlivesRelease(t *testing.T) {
	orig := recycle
	recycle = func(l *wire.StashLog, b []byte) {
		for i := range b {
			b[i] = 0xDB
		}
		orig(l, b)
	}
	t.Cleanup(func() { recycle = orig })

	const (
		rounds   = 24
		perRound = 160
		batch    = 8 // sender flush size; the acked variant ACKs after every flush
		expNum   = 4242
	)
	// message i is its index followed by bytes only i produces.
	msg := func(i uint64) []byte {
		m := make([]byte, 8, 200)
		binary.BigEndian.PutUint64(m, i)
		for j := 8; j < cap(m); j++ {
			m = append(m, byte(i*131+uint64(j)*7))
		}
		return m
	}
	upLen := upgradedLen(mode0Pkt(t, expNum, string(msg(0))))

	for _, tc := range []struct {
		name     string
		capacity int
		acked    bool
	}{
		{"evictions", 2 * upLen, false},
		{"trims", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			sink.SetReadBuffer(4 << 20)

			// The sink checks every forwarded datagram: intact header, the
			// payload its index implies, the sequence number the relay gave
			// that index (one flow, in-order loopback: index + 1), no repeats.
			var mu sync.Mutex
			var got int
			var bad []string
			seen := make(map[uint64]bool)
			sinkDone := make(chan struct{})
			defer func() {
				sink.Close()
				<-sinkDone
			}()
			go func() {
				defer close(sinkDone)
				buf := make([]byte, 2048)
				for {
					n, _, err := sink.ReadFromUDP(buf)
					if err != nil {
						return
					}
					why := ""
					v := wire.View(buf[:n])
					if _, err := v.Check(); err != nil {
						why = err.Error()
					} else if seq, err := v.Seq(); err != nil {
						why = err.Error()
					} else if p := v.Payload(); len(p) < 8 || !bytes.Equal(p, msg(binary.BigEndian.Uint64(p))) {
						why = fmt.Sprintf("seq %d carries a payload no message has", seq)
					} else if i := binary.BigEndian.Uint64(p); seq != i+1 {
						why = fmt.Sprintf("seq %d carries message %d", seq, i)
					} else if seen[seq] {
						why = fmt.Sprintf("seq %d forwarded twice", seq)
					} else {
						seen[seq] = true
					}
					mu.Lock()
					got++
					if why != "" && len(bad) < 5 {
						bad = append(bad, why)
					}
					mu.Unlock()
				}
			}()

			relay, err := NewRelay(RelayConfig{
				Listen:        "127.0.0.1:0",
				Forward:       sink.LocalAddr().String(),
				CapacityBytes: tc.capacity,
				MaxAge:        time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer relay.Close()
			// Only full rings flush: a timer flush of a partial ring would
			// leave the tail of the batch an ACK covers behind that ACK, and
			// the round would end with those packets stashed, never trimmed.
			snd, err := NewSenderWithConfig(SenderConfig{Dst: relay.Addr(), Experiment: expNum, BatchSize: batch, FlushInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer snd.Close()
			relayAddr, _ := net.ResolveUDPAddr("udp4", relay.Addr())
			acker, _ := toWireAddr(sink.LocalAddr().(*net.UDPAddr))

			var sent uint64
			sendRound := func() error {
				relay.engMu.Lock()
				defer relay.engMu.Unlock()
				for k := 0; k < perRound; k++ {
					if err := snd.Send(msg(sent), 0); err != nil {
						return err
					}
					sent++
					if tc.acked && sent%batch == 0 {
						// Acknowledge everything sent so far: queued behind the
						// data it covers, the trim lands mid-burst.
						ack, _ := (&wire.Ack{Experiment: wire.NewExperimentID(expNum, 0), CumulativeSeq: sent, Acker: acker}).AppendTo(nil)
						if _, err := sink.WriteToUDP(ack, relayAddr); err != nil {
							return err
						}
					}
				}
				return nil
			}
			for round := 0; round < rounds; round++ {
				if err := sendRound(); err != nil {
					t.Fatal(err)
				}
				waitFor(t, 5*time.Second, func() bool {
					mu.Lock()
					defer mu.Unlock()
					return got >= int(sent) && (!tc.acked || relay.Stats().Trimmed == sent)
				}, "the round to reach the sink")
				// ReleasedBytes counts a buffer when the engine lets go, not
				// when the pool gets it back: the balance holds either way.
				st := relay.Stats()
				if st.BufferedBytes-st.ReleasedBytes-uint64(st.Occupancy) != 0 {
					t.Fatalf("round %d: stash imbalance: %+v", round, st)
				}
			}

			mu.Lock()
			defer mu.Unlock()
			if len(bad) > 0 || got != int(sent) || len(seen) != int(sent) {
				t.Fatalf("sink saw %d datagrams, %d distinct and intact, want %d of each; first faults: %q", got, len(seen), sent, bad)
			}
			st := relay.Stats()
			if st.Forwarded != sent || st.TxErrors != 0 {
				t.Fatalf("relay forwarded %d of %d, %d tx errors", st.Forwarded, sent, st.TxErrors)
			}
			if tc.acked && (st.Trimmed != sent || st.Evicted != 0) {
				t.Fatalf("trims did not do the releasing: %+v", st)
			}
			if !tc.acked && st.Evicted < sent-3 {
				t.Fatalf("evictions did not do the releasing: %+v", st)
			}
		})
	}

	// One destination, driven packet by packet under the engine lock. B1
	// and B2 queue first, then A's packets; the stash holds 63 entries, so
	// A's 62nd insert evicts B1 while it is queued, and a trim then
	// releases B2, also queued. A's 63rd packet finds 64 queued and writes
	// them mid-burst, B1 and B2 first; A's 127th writes A's next 64, and
	// flush the last. A buffer recycled before the write that carries it
	// reaches the sink as poison.
	t.Run("mid-burst", func(t *testing.T) {
		const expA, expB1, expB2 = 4301, 4302, 4303
		sink := newSeqSink(t)
		payload := string(bytes.Repeat([]byte{'m'}, 200))
		pktA, pktB1, pktB2 := mode0Pkt(t, expA, payload), mode0Pkt(t, expB1, payload), mode0Pkt(t, expB2, payload)
		const held = maxGSOSegs - 1
		relay, err := NewRelay(RelayConfig{
			Listen:        "127.0.0.1:0",
			CapacityBytes: held * upgradedLen(pktA),
			Forward:       sink.conn.LocalAddr().String(),
			MaxAge:        time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer relay.Close()
		if !relay.BatchCaps().Mmsg {
			t.Skip("portable path: writes are not counted")
		}
		srcA, srcB := wire.AddrFrom(10, 0, 0, 1, 4000), wire.AddrFrom(10, 0, 0, 2, 4000)
		const burstA = 2*maxGSOSegs - 1
		written := func() uint64 { return relay.BatchStats().SentPackets }
		base := written()

		relay.engMu.Lock()
		relay.eng.Handle(srcB, pktB1, 0)
		relay.eng.Handle(srcB, pktB2, 0)
		for i := 0; i < maxGSOSegs-2; i++ {
			relay.eng.Handle(srcA, pktA, 0)
		}
		queued := written() - base
		relay.eng.Buffer().Trim(wire.NewExperimentID(expB2, 0), 1)
		for i := maxGSOSegs - 2; i < burstA; i++ {
			relay.eng.Handle(srcA, pktA, 0)
		}
		sends := written() - base
		relay.flush()
		relay.engMu.Unlock()

		if queued != 0 || sends != 2*maxGSOSegs {
			t.Fatalf("%d packets written before the trim, %d before flush; want 0 and %d", queued, sends, 2*maxGSOSegs)
		}
		if st := relay.Stats(); st.Trimmed != 1 || st.Evicted != burstA+2-held-1 {
			t.Fatalf("trimmed %d, evicted %d; want 1 and %d", st.Trimmed, st.Evicted, burstA+2-held-1)
		}
		sink.waitSeqs(t, burstA+2)
		got := sink.byExp()
		if len(sink.got()) != burstA+2 || len(got) != 3 || len(got[expA]) != burstA || !ascending(got[expA], 1) ||
			!slices.Equal(got[expB1], []uint64{1}) || !slices.Equal(got[expB2], []uint64{1}) {
			t.Fatalf("sink read %v per experiment (experiment 0: poison); want A 1..%d, B1 [1], B2 [1]: a released buffer was recycled before its write", got, burstA)
		}
	})
}

// TestRelayCountsMalformed: a datagram too short to check and a NAK whose
// ranges are cut short each raise dmtp.relay.malformed by exactly one. A
// good packet sent after each, on the same socket, marks when the relay
// has read it.
func TestRelayCountsMalformed(t *testing.T) {
	const exp = 601
	sink := newSeqSink(t)
	relay, err := NewRelay(RelayConfig{Listen: "127.0.0.1:0", Forward: sink.conn.LocalAddr().String(), MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	reg := metrics.NewRegistry()
	relay.RegisterMetrics(reg)
	raddr, err := net.ResolveUDPAddr("udp4", relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp4", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	nak, err := (&wire.NAK{Experiment: wire.NewExperimentID(exp, 0), Requester: wire.AddrFrom(127, 0, 0, 1, 9),
		Ranges: []wire.SeqRange{{From: 1, To: 1}}}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, bad := range [][]byte{{0, 0, 0}, nak[:len(nak)-1]} {
		if _, err := conn.Write(bad); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(mode0Pkt(t, exp, "x")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool { return relay.Stats().Upgraded == uint64(i+1) }, "the marker packet")
		if got, _ := metrics.SampleValue(reg.Snapshot(), metrics.MetricRelayMalformed); got != int64(i+1) {
			t.Fatalf("after %d malformed datagrams: %s %d", i+1, metrics.MetricRelayMalformed, got)
		}
	}
}
