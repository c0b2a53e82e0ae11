package live

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// benchPayload is a DAQ-fragment-sized message body (the pilot's generators
// emit ~1 KiB fragments after h5lite framing).
const benchPayloadLen = 1024

// BenchmarkLiveLoopback measures live-path send throughput over a real UDP
// loopback socket: sender (a flush ring of one, so one write per Send) →
// receiver on 127.0.0.1, mode-0 datagrams, the receiver draining and
// counting deliveries. The headline metric is msgs/s on the send side;
// delivered/s is reported for cross-checking (UDP may shed load under
// overrun, which does not gate the benchmark). Expect 0 allocs/op:
// deliveries are views of the receive ring, so neither end allocates per
// message (TestLoopbackAllocsPerMessage is the gate).
func BenchmarkLiveLoopback(b *testing.B) {
	var delivered atomic.Uint64
	recv, err := NewReceiver(ReceiverConfig{
		Listen: "127.0.0.1:0",
		OnMessage: func(m Message) {
			delivered.Add(1)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()

	sender, err := NewSenderWithConfig(SenderConfig{Dst: recv.Addr(), Experiment: 7})
	if err != nil {
		b.Fatal(err)
	}
	defer sender.Close()

	payload := make([]byte, benchPayloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.SetBytes(benchPayloadLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Send(payload, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(delivered.Load())/b.Elapsed().Seconds(), "delivered/s")
}

// BenchmarkLiveLoopbackBatched is BenchmarkLiveLoopback with the
// kernel-batch datapath engaged: BatchSize=32 rides the sender's flush
// ring into one sendmmsg (or GSO super-send) per flush, and the receiver
// drains with recvmmsg + GRO splitting. On non-Linux builds the same
// configuration runs the portable fallback, so the benchmark doubles as
// its smoke test. Reports packets-per-syscall alongside throughput.
func BenchmarkLiveLoopbackBatched(b *testing.B) {
	var delivered atomic.Uint64
	recv, err := NewReceiver(ReceiverConfig{
		Listen: "127.0.0.1:0",
		OnMessage: func(m Message) {
			delivered.Add(1)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()

	sender, err := NewSenderWithConfig(SenderConfig{
		Dst:        recv.Addr(),
		Experiment: 7,
		BatchSize:  32,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sender.Close()

	payload := make([]byte, benchPayloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.SetBytes(benchPayloadLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Send(payload, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(delivered.Load())/b.Elapsed().Seconds(), "delivered/s")
	if bs := sender.BatchStats(); bs.Syscalls > 0 {
		b.ReportMetric(float64(bs.SentPackets)/float64(bs.Syscalls), "pkts/syscall")
	}
}

// BenchmarkRelayIngest measures relay ingest — batched sender → relay
// (mode upgrade + stash) → receiver on real loopback sockets — with the
// stash write-ahead journal off and on, the before/after pair the
// durable-relay change is judged by (EXPERIMENTS.md "Durable relay
// stash"). The receiver ACKs every 2 ms so cumulative trims exercise
// the tombstone path, and journalled appends ride the async writer:
// the delta between the two sub-benchmarks is the journal's hot-path
// cost, not its fsync latency. It reports what the relay serviced —
// upgraded/s, and appends/s with the journal on — not the rate the
// sender offered, which UDP may shed at the relay's socket.
func BenchmarkRelayIngest(b *testing.B) {
	for _, mode := range []struct {
		name    string
		journal bool
	}{
		{name: "journal=off"},
		{name: "journal=batch", journal: true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			recv, err := NewReceiver(ReceiverConfig{
				Listen:      "127.0.0.1:0",
				AckInterval: 2 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer recv.Close()

			cfg := RelayConfig{Listen: "127.0.0.1:0", Forward: recv.Addr()}
			if mode.journal {
				cfg.JournalDir = b.TempDir()
			}
			relay, err := NewRelay(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer relay.Close()

			sender, err := NewSenderWithConfig(SenderConfig{
				Dst:        relay.Addr(),
				Experiment: 7,
				BatchSize:  32,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sender.Close()

			payload := make([]byte, benchPayloadLen)
			for i := range payload {
				payload[i] = byte(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sender.Send(payload, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(relay.Stats().Upgraded)/b.Elapsed().Seconds(), "upgraded/s")
			if mode.journal {
				b.ReportMetric(float64(relay.JournalStats().Appends)/b.Elapsed().Seconds(), "appends/s")
			}
		})
	}
}

// BenchmarkRelayBurst drives the relay's forward path alone, on the
// kernel path: 256-packet bursts of one flow, 1 KiB and 256 B, handed to
// the engine and flushed into a loopback socket nobody reads (forwarding
// is fire-and-forget), with a cumulative trim of the burst before its
// flush, as an ACK in the burst would. One op is one burst. Beside ns/op
// it reports the relay's write syscalls per burst and packets per write:
// how the forward leg cuts a burst into GSO super-datagrams.
//
// Each size runs unscraped and with a goroutine rendering the relay's
// registry, as a /metrics scrape does, every millisecond. A scrape reads
// the relay's set under engMu, so it waits for the burst in progress and
// holds up the next. The scraped case reports that hold-up directly: the
// time the burst loop waited for engMu, per scrape (stall-ns/scrape). Its
// ns/op beside the unscraped case's adds what the scraper's own CPU and
// garbage cost the loop.
func BenchmarkRelayBurst(b *testing.B) {
	const burst = 256
	for _, size := range []int{1024, 256} {
		for _, scrape := range []time.Duration{0, time.Millisecond} {
			name := fmt.Sprintf("size=%dB/scrape=none", size)
			if scrape > 0 {
				name = fmt.Sprintf("size=%dB/scrape=%v", size, scrape)
			}
			b.Run(name, func(b *testing.B) { benchRelayBurst(b, burst, size, scrape) })
		}
	}
}

func benchRelayBurst(b *testing.B, burst, size int, scrape time.Duration) {
	sink, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	relay, err := NewRelay(RelayConfig{Listen: "127.0.0.1:0", Forward: sink.LocalAddr().String(), MaxAge: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer relay.Close()
	if !relay.BatchCaps().Mmsg {
		b.Skip("portable path: no write syscalls to count")
	}
	exp := wire.NewExperimentID(7, 0)
	enc, err := (&wire.Header{Experiment: exp}).AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	pkt := wire.View(append(enc, make([]byte, size)...))
	src := wire.AddrFrom(10, 0, 0, 1, 4000)

	var scrapes atomic.Uint64
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	if scrape > 0 {
		reg := metrics.NewRegistry()
		relay.RegisterMetrics(reg)
		scraper.Add(1)
		go func() {
			defer scraper.Done()
			tick := time.NewTicker(scrape)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					reg.WriteText(io.Discard)
					scrapes.Add(1)
				}
			}
		}()
	}

	var seq uint64
	before := relay.BatchStats()
	b.SetBytes(int64(burst * size))
	b.ReportAllocs()
	b.ResetTimer()
	scrapes.Store(0)
	var stalled time.Duration
	for i := 0; i < b.N; i++ {
		if !relay.engMu.TryLock() { // a scrape holds it
			t0 := time.Now()
			relay.engMu.Lock()
			stalled += time.Since(t0)
		}
		for k := 0; k < burst; k++ {
			relay.eng.Handle(src, pkt, 0)
		}
		seq += uint64(burst)
		relay.eng.Buffer().Trim(exp, seq)
		relay.flush()
		relay.engMu.Unlock()
	}
	b.StopTimer()
	n := scrapes.Load()
	close(stop)
	scraper.Wait()
	after := relay.BatchStats()
	writes := after.Syscalls - before.Syscalls
	b.ReportMetric(float64(writes)/float64(b.N), "writes/burst")
	if writes > 0 {
		b.ReportMetric(float64(after.SentPackets-before.SentPackets)/float64(writes), "pkts/write")
	}
	if scrape > 0 && n > 0 {
		b.ReportMetric(float64(n)/float64(b.N), "scrapes/op")
		b.ReportMetric(float64(stalled.Nanoseconds())/float64(n), "stall-ns/scrape")
	}
}
