// Command dmtp-send streams a synthetic DAQ workload as mode-0 DMTP
// datagrams toward a relay — the live-path instrument source.
//
//	dmtp-send -to 127.0.0.1:17580 -n 1000 -rate 5000 -debug-addr 127.0.0.1:8001
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/daq"
	"repro/internal/debugsrv"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/tracespan"
)

func main() {
	to := flag.String("to", "127.0.0.1:17580", "relay address")
	n := flag.Uint64("n", 1000, "messages to send")
	experiment := flag.Uint("experiment", 777, "24-bit experiment number")
	slice := flag.Uint("slice", 0, "instrument slice")
	size := flag.Int("size", 7680, "message payload bytes")
	rate := flag.Float64("rate", 1000, "messages per second")
	batch := flag.Int("batch", 1, "flush-ring depth: messages written per flush (sendmmsg/GSO on Linux)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /events and pprof on this address (off when empty)")
	traceSample := flag.Int("trace-sample", 0, "emit an in-band trace on every Nth message (0 = off)")
	traceOut := flag.String("trace-out", "", "write the flight-recorder timeline as Perfetto trace JSON on exit")
	blackboxDir := flag.String("blackbox-dir", "", "write a crash black box (flight ring + final metrics) here on panic (off when empty)")
	flag.Parse()

	var rec *metrics.FlightRecorder
	if *debugAddr != "" || *traceOut != "" || *blackboxDir != "" {
		rec = metrics.NewFlightRecorder(0)
	}
	var reg *metrics.Registry
	if *blackboxDir != "" {
		dir := *blackboxDir
		defer func() {
			if v := recover(); v != nil {
				if path, err := metrics.WriteBox(dir, "sender", fmt.Sprintf("panic: %v", v), reg, rec); err == nil {
					fmt.Fprintf(os.Stderr, "dmtp-send: black box written to %s\n", path)
				}
				panic(v)
			}
		}()
	}
	snd, err := live.NewSenderWithConfig(live.SenderConfig{
		Dst:         *to,
		Experiment:  uint32(*experiment),
		Recorder:    rec,
		TraceSample: *traceSample,
		BatchSize:   *batch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtp-send:", err)
		os.Exit(1)
	}
	defer snd.Close()

	if *debugAddr != "" || *blackboxDir != "" {
		reg = metrics.NewRegistry()
		snd.RegisterMetrics(reg)
		metrics.RegisterProcessMetrics(reg)
		metrics.RegisterFlightMetrics(reg, rec)
	}
	if *debugAddr != "" {
		dbg, err := debugsrv.New(debugsrv.Config{Addr: *debugAddr, Registry: reg, Recorder: rec})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmtp-send:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("dmtp-send: debug endpoint on http://%s\n", dbg.Addr())
	}

	src := daq.NewGeneric(daq.GenericConfig{
		Slice:       uint8(*slice),
		MessageSize: *size,
		Interval:    time.Duration(float64(time.Second) / *rate),
		Count:       *n,
		Seed:        time.Now().UnixNano(),
	})
	start := time.Now()
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if sleep := rec.At - time.Since(start); sleep > 0 {
			time.Sleep(sleep)
		}
		if err := snd.Send(rec.Data, rec.Slice); err != nil {
			fmt.Fprintln(os.Stderr, "dmtp-send:", err)
			os.Exit(1)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("dmtp-send: %d messages (%d bytes each) in %v from %s\n",
		snd.Sent(), *size, elapsed.Round(time.Millisecond), snd.LocalAddr())
	bs := snd.BatchStats()
	perSyscall := 1.0 // the portable path writes one packet per syscall
	if bs.Syscalls > 0 {
		perSyscall = float64(bs.SentPackets) / float64(bs.Syscalls)
	}
	fmt.Printf("dmtp-send: batch caps %+v, %.1f pkts/syscall, %d GSO segments, %d fallbacks\n",
		snd.BatchCaps(), perSyscall, bs.GSOSegments, bs.Fallbacks)

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmtp-send:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := tracespan.WriteFlightTrace(f, rec.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "dmtp-send:", err)
			os.Exit(1)
		}
		fmt.Printf("dmtp-send: flight trace written to %s\n", *traceOut)
	}
}
