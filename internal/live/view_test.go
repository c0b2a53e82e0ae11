package live

import (
	"bytes"
	"encoding/binary"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dmtp"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// The delivery contract — Message.Payload is a view of the receive ring,
// valid until OnMessage returns — and the per-burst clock reading, tested
// on both read paths. TestMain turns the ring poison on for the whole
// package, so every test here runs against a receiver that destroys each
// burst's packets the moment their callbacks have returned.

const poisonByte = 0xDB

// poisonedPkts counts packets the poison has overwritten; waiting on it
// orders a test's read of a retained view after the overwrite.
var poisonedPkts atomic.Uint64

func TestMain(m *testing.M) {
	poisonRing = func(pkt []byte, _ wire.Addr) {
		for i := range pkt {
			pkt[i] = poisonByte
		}
		poisonedPkts.Add(1)
	}
	os.Exit(m.Run())
}

// viewBody is message idx of the view test: its index, then 200–999 bytes
// that depend on both the index and the position.
func viewBody(idx uint64) []byte {
	b := make([]byte, 8+200+idx%800)
	binary.BigEndian.PutUint64(b, idx)
	for i := 8; i < len(b); i++ {
		b[i] = byte(idx*31 + uint64(i))
	}
	return b
}

// TestDeliveredPayloadIsRingView pins both halves of the contract on the
// kernel-batch ring and on the portable single-buffer path: inside
// OnMessage every payload of a lossy 2000-message stream, NAK-recovered
// ones included, is byte-exact; and a payload kept un-cloned past the
// callback reads as poison — which is also what shows the poison can fire
// (a receiver that copied out of the ring would leave the kept slice
// clean). Alongside, it samples the invariant the views rest on: no
// message is ever queued while the receiver lock is free.
func TestDeliveredPayloadIsRingView(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(UDPConn) UDPConn
	}{
		{"kernel-ring", nil},
		{"portable-buffer", func(c UDPConn) UDPConn { return struct{ UDPConn }{c} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 2000
			var (
				mu        sync.Mutex
				seen      = make(map[uint64]int)
				corrupt   int
				recovered int
				kept      []byte // message 0's payload, retained un-cloned on purpose
			)
			// Every drop is recovered on the first NAK on an idle machine,
			// but a starved one can hold a NAK's round trip for longer than
			// 8 NAKs capped at 50 ms apart (~230 ms): the gap was written off
			// with every retransmission still on its way. Twelve NAKs capped
			// at 1 s apart give it about 4 s.
			recv, err := NewReceiver(ReceiverConfig{
				Listen:      "127.0.0.1:0",
				NAKDelay:    time.Millisecond,
				NAKRetry:    5 * time.Millisecond,
				NAKRetryMax: time.Second,
				MaxNAKs:     12,
				Wrap:        tc.wrap,
				OnMessage: func(m Message) {
					if len(m.Payload) < 8 {
						return // flush traffic
					}
					idx := binary.BigEndian.Uint64(m.Payload)
					mu.Lock()
					defer mu.Unlock()
					if !bytes.Equal(m.Payload, viewBody(idx)) {
						corrupt++
						return
					}
					if idx == 0 {
						kept = m.Payload
					}
					seen[idx]++
					if m.Recovered {
						recovered++
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			relay, err := NewRelay(RelayConfig{
				Listen:        "127.0.0.1:0",
				CapacityBytes: testCapacity,
				Forward:       recv.Addr(),
				MaxAge:        5 * time.Second,
				DropEveryN:    7,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer relay.Close()
			snd, err := NewSenderWithConfig(SenderConfig{Dst: relay.Addr(), Experiment: 42, BatchSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer snd.Close()
			delivered := func() int {
				mu.Lock()
				defer mu.Unlock()
				return len(seen)
			}

			stop := make(chan struct{})
			var sampler sync.WaitGroup
			sampler.Add(1)
			go func() {
				defer sampler.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					recv.mu.Lock()
					queued := len(recv.pendMsgs)
					recv.mu.Unlock()
					if queued != 0 {
						t.Errorf("%d messages queued with the receiver lock free", queued)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
			defer sampler.Wait()
			defer close(stop)

			// Message 0 travels alone, so nothing lands on its ring slot
			// after the poison does.
			base := poisonedPkts.Load()
			if err := snd.Send(viewBody(0), 0); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, func() bool { return delivered() == 1 && poisonedPkts.Load() > base }, "message 0 and its poison")
			mu.Lock()
			if want := viewBody(0); len(kept) != len(want) || bytes.Count(kept, []byte{poisonByte}) != len(kept) {
				t.Errorf("payload kept past OnMessage reads %d bytes, %d of them poison; want %d, all poison",
					len(kept), bytes.Count(kept, []byte{poisonByte}), len(want))
			}
			mu.Unlock()

			// The sender → relay leg is mode 0, with nothing to recover a
			// datagram the relay's socket sheds, so at most 64 messages are
			// let ahead of the relay's upgrades.
			for i := uint64(1); i < n; i++ {
				if err := snd.Send(viewBody(i), 0); err != nil {
					t.Fatal(err)
				}
				waitFor(t, 5*time.Second, func() bool { return relay.Stats().Upgraded+64 > i }, "the relay to keep up")
			}
			// Any write-off fails the test, so the probe stops at the first.
			flushes := 0
			start := time.Now()
			probeUntil(20*time.Second, func() { flushes++; snd.Send([]byte("flush"), 0) }, recv.OutstandingGaps,
				func() bool { return delivered() >= n }, func() bool { return recv.Stats().PermanentLoss > 0 })
			mu.Lock()
			defer mu.Unlock()
			if corrupt != 0 || len(seen) != n || recv.Stats().PermanentLoss > 0 {
				// Where the shortfall came from: short of n+flushes upgrades
				// is loss before the relay; write-offs are gaps given up after
				// MaxNAKs.
				t.Fatalf("%d of %d payloads delivered intact, %d corrupt; the relay upgraded %d of %d messages and flushes sent, the receiver wrote off %d; probed for %v",
					len(seen), n, corrupt, relay.Stats().Upgraded, n+flushes, recv.Stats().PermanentLoss, time.Since(start).Round(time.Millisecond))
			}
			for idx, c := range seen {
				if c != 1 {
					t.Errorf("message %d delivered %d times", idx, c)
				}
			}
			if recovered == 0 || relay.Stats().InjectedDrops == 0 {
				t.Fatalf("no NAK-recovered delivery was checked (recovered %d, injected drops %d)",
					recovered, relay.Stats().InjectedDrops)
			}
		})
	}
}

// stepClock moves one tick forward on every reading, so two readings never
// agree: deliveries stamped with the same time shared one reading. Its
// timers fire when the test says so.
type stepClock struct {
	mu     sync.Mutex
	now    int64
	reads  int
	timers []*stepTimer
}

const stepTick = int64(time.Millisecond)

type stepTimer struct {
	fn      func()
	stopped atomic.Bool
}

func (t *stepTimer) Stop() { t.stopped.Store(true) }

func (c *stepClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += stepTick
	c.reads++
	return c.now
}

func (c *stepClock) Schedule(_ int64, fn func()) dmtp.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &stepTimer{fn: fn}
	c.timers = append(c.timers, t)
	return t
}

// fire runs every pending timer on the caller's goroutine, as the owner
// of an injected clock does.
func (c *stepClock) fire() {
	c.mu.Lock()
	due := c.timers
	c.timers = nil
	c.mu.Unlock()
	for _, t := range due {
		if !t.stopped.Load() {
			t.fn()
		}
	}
}

func (c *stepClock) readings() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads
}

// TestReceiverReadsClockOncePerBurst pins what Latency, Late and Aged are
// measured against: every packet of one ReadBatch is ingested at the one
// clock reading taken for that read — its gap detections and timer arming
// included — while a NAK-timer fire between reads takes a later reading of
// its own.
func TestReceiverReadsClockOncePerBurst(t *testing.T) {
	clock := &stepClock{now: int64(time.Hour)}
	rec := metrics.NewFlightRecorder(64)
	type delivery struct {
		seq   uint64
		now   int64  // the reading the message was ingested at
		burst uint64 // numbers the read that returned it (see OnMessage)
	}
	var (
		self atomic.Pointer[Receiver]
		mu   sync.Mutex
		got  []delivery
	)
	const origin = 1
	recv, err := NewReceiver(ReceiverConfig{
		Listen:   "127.0.0.1:0",
		NAKDelay: time.Duration(stepTick),
		Clock:    clock,
		Recorder: rec,
		OnMessage: func(m Message) {
			// The packets received so far, counted when the read returns,
			// number the reads; Syscalls would not, since control sends
			// count there too.
			read := self.Load().BatchStats().RecvPackets
			mu.Lock()
			got = append(got, delivery{m.Seq, int64(m.Latency) + origin, read})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	self.Store(recv)
	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}

	raddr, err := net.ResolveUDPAddr("udp4", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp4", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wstats batchStats
	wr := newBatchConn(conn, &wstats, false)
	buffer, err := toWireAddr(conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	pkt := func(seq uint64) []byte {
		h := wire.Header{
			ConfigID:   1,
			Features:   wire.FeatSequenced | wire.FeatReliable | wire.FeatTimestamped,
			Experiment: wire.NewExperimentID(7, 0),
		}
		h.Seq.Seq = seq
		h.Retransmit.Buffer = buffer // NAKs come back here and are ignored
		h.Timestamp.OriginNanos = origin
		enc, err := h.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		return append(enc, "payload"...)
	}

	// Park the read loop on the receiver lock with packet 1 in hand, queue
	// 2–4 and 6–9 behind it (5 is the gap), and let go: the loop's next
	// read finds the seven waiting and returns them as one burst.
	recv.mu.Lock()
	if _, err := conn.Write(pkt(1)); err != nil {
		recv.mu.Unlock()
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for recv.BatchStats().RecvPackets < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var train [][]byte
	for _, seq := range []uint64{2, 3, 4, 6, 7, 8, 9} {
		train = append(train, pkt(seq))
	}
	_, err = wr.WriteBatch(train)
	recv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return delivered() == 8 }, "the first eight deliveries")

	mu.Lock()
	nowOf := map[uint64]int64{} // read → its reading
	var last, gapAt int64
	for _, d := range got {
		if now, ok := nowOf[d.burst]; ok && now != d.now {
			t.Errorf("seq %d of read %d ingested at %d, the packets before it at %d", d.seq, d.burst, d.now, now)
		} else if !ok && d.now <= last {
			t.Errorf("read %d ingested at %d, not after the read before it (%d)", d.burst, d.now, last)
		}
		nowOf[d.burst], last = d.now, d.now
		if d.seq == 6 {
			gapAt = d.now
		}
	}
	mu.Unlock()
	// Every read of this test delivered something, so the reads are counted.
	if r := clock.readings(); r != len(nowOf) {
		t.Fatalf("%d clock readings for %d socket reads, want one each", r, len(nowOf))
	}
	if recv.BatchStats().Syscalls > 0 && len(nowOf) == 8 {
		t.Fatal("kernel path, yet every packet came in a read of its own: the test compared nothing")
	}

	// The gap at 5 was detected at the reading of the burst that brought 6;
	// the NAK timer that fires for it between reads sees the clock further on.
	clock.fire()
	var detected, naked int64
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case metrics.EvGapDetected:
			detected = ev.At
		case metrics.EvNAKSent:
			naked = ev.At
		}
	}
	if detected != gapAt {
		t.Fatalf("gap detected at %d, its burst was ingested at %d", detected, gapAt)
	}
	if naked <= last {
		t.Fatalf("NAK fired at %d, no later than the last burst's reading %d", naked, last)
	}
	if _, err := conn.Write(pkt(5)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return delivered() == 9 }, "the recovered delivery")
	mu.Lock()
	defer mu.Unlock()
	if d := got[8]; d.seq != 5 || d.now <= naked {
		t.Fatalf("seq %d ingested at %d, want seq 5 after the NAK fire's reading %d", d.seq, d.now, naked)
	}
}

// TestLoopbackAllocsPerMessage is the whole trio's allocation guard: 20 000
// 1 KiB messages through sender → relay → receiver, process-wide. Each
// control packet the receiver sends costs the encoding SendControl takes
// (one allocation, two under -race), so the control packets the window
// sent are counted, bounded, and their encodings set apart; bound is on
// everything else, which reads under 0.01 per message on either slice
// count, with or without -race.
//
// A stream ACKs at most once per interval, so no window holds more than
// slices × (elapsed/interval + 1) control packets. The sender paces its
// slices: each gets a run of sliceRun messages before the next one does.
// A stream ACKs once per interval from its first packet until four
// intervals after its last, so a run delivered over d costs at most
// d/interval + 6 ACKs, and the ACKs per message stay under
// (d/interval + 6)/sliceRun: 6/64 ≈ 0.09 plus one over the messages
// delivered per interval, whatever share of the CPU the trio gets. Sent
// round robin, all 64 streams would ACK every millisecond however slowly
// the messages came, and the ratio would follow the delivery rate: 0.42–0.47
// starved on one CPU beside two busy loops. Paced, 64 slices read
// 0.060–0.063 on a 2-vCPU Xeon, 0.020–0.024 under -race and 0.062–0.068
// starved as above.
//
// A receiver that copies each payload out of the ring adds ≈ 1.1
// allocations per message; timers fired on goroutines of their own cost
// about eight each (that receiver read 0.74–0.88 in all on 64 slices,
// where this one read 0.11–0.12).
func TestLoopbackAllocsPerMessage(t *testing.T) {
	const bound = 0.05
	const sliceRun = 64
	perCtrl := testing.AllocsPerRun(100, func() { (&wire.Ack{CumulativeSeq: 1}).AppendTo(nil) })
	for _, tc := range []struct {
		name        string
		slices      int
		ackInterval time.Duration
		maxCtrl     float64 // control packets per delivered message
	}{
		{"1-slice", 1, 2 * time.Millisecond, 0.02},
		{"64-slices", 64, time.Millisecond, 0.4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var delivered atomic.Uint64
			recv, err := NewReceiver(ReceiverConfig{
				Listen:      "127.0.0.1:0",
				AckInterval: tc.ackInterval,
				OnMessage:   func(Message) { delivered.Add(1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			relay, err := NewRelay(RelayConfig{Listen: "127.0.0.1:0", Forward: recv.Addr()})
			if err != nil {
				t.Fatal(err)
			}
			defer relay.Close()
			snd, err := NewSenderWithConfig(SenderConfig{Dst: relay.Addr(), Experiment: 7, BatchSize: 32})
			if err != nil {
				t.Fatal(err)
			}
			defer snd.Close()

			payload := pktOf(benchPayloadLen, 5)
			var sent uint64
			// send keeps at most 512 messages in flight, so loopback sheds nothing.
			send := func(n int) {
				for i := 0; i < n; i++ {
					if err := snd.Send(payload, uint8(sent/sliceRun%uint64(tc.slices))); err != nil {
						t.Fatal(err)
					}
					sent++
					for deadline := time.Now().Add(5 * time.Second); sent-delivered.Load() > 512; {
						if time.Now().After(deadline) {
							t.Fatalf("stalled: %d sent, %d delivered", sent, delivered.Load())
						}
						runtime.Gosched()
					}
				}
				waitFor(t, 5*time.Second, func() bool { return delivered.Load() == sent }, "the window to drain")
			}
			// Warm: rings, pools, flows, streams, the stash and the gap list reach
			// their sizes, and every slice has had a run.
			send(max(2000, tc.slices*sliceRun))

			const n = 20000
			var before, after runtime.MemStats
			ctrl0 := recv.BatchStats().SentPackets
			runtime.ReadMemStats(&before)
			start := time.Now()
			send(n)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			ctrl := float64(recv.BatchStats().SentPackets - ctrl0)
			per := (float64(after.Mallocs-before.Mallocs) - ctrl*perCtrl) / n
			t.Logf("%.4f heap allocations per delivered message besides the %.0f control packets' encodings (%.4f per message, %v)", per, ctrl, ctrl/n, elapsed)
			if timed := float64(tc.slices) * (float64(elapsed)/float64(tc.ackInterval) + 1); ctrl > timed {
				t.Fatalf("%.0f control packets in %v; %d streams ACKing once per %v send at most %.0f", ctrl, elapsed, tc.slices, tc.ackInterval, timed)
			}
			if ctrl/n >= tc.maxCtrl {
				t.Fatalf("%.4f control packets per delivered message, want < %v", ctrl/n, tc.maxCtrl)
			}
			if per >= bound {
				t.Fatalf("%.4f heap allocations per delivered message besides the %.0f control packets' encodings, want < %v", per, ctrl, bound)
			}
		})
	}
}
