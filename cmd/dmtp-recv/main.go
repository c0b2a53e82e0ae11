// Command dmtp-recv runs the live-path destination: loss detection, NAK
// recovery from the relay's buffer, the destination timeliness check, and
// delivery accounting.
//
//	dmtp-recv -listen 127.0.0.1:17581 -debug-addr 127.0.0.1:8003
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/debugsrv"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/tracespan"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:17581", "UDP listen address")
	verbose := flag.Bool("v", false, "log each message")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /events and pprof on this address (off when empty)")
	traceSample := flag.Int("trace-sample", 0, "collect spans from in-band traced messages (0 = off; the value only arms collection — sampling is the sender's)")
	traceOut := flag.String("trace-out", "", "write collected spans as Perfetto trace JSON on exit")
	blackboxDir := flag.String("blackbox-dir", "", "write a crash black box (flight ring + final metrics) here on panic (off when empty)")
	flag.Parse()

	var rec *metrics.FlightRecorder
	if *debugAddr != "" || *blackboxDir != "" {
		rec = metrics.NewFlightRecorder(0)
	}
	var reg *metrics.Registry
	if *blackboxDir != "" {
		dir := *blackboxDir
		defer func() {
			if v := recover(); v != nil {
				if path, err := metrics.WriteBox(dir, "receiver", fmt.Sprintf("panic: %v", v), reg, rec); err == nil {
					fmt.Fprintf(os.Stderr, "dmtp-recv: black box written to %s\n", path)
				}
				panic(v)
			}
		}()
	}
	var tracer *tracespan.Collector
	if *traceSample > 0 || *traceOut != "" {
		tracer = tracespan.NewCollector(0)
	}
	recv, err := live.NewReceiver(live.ReceiverConfig{
		Listen:   *listen,
		Recorder: rec,
		Tracer:   tracer,
		OnMessage: func(m live.Message) {
			if *verbose {
				fmt.Printf("%v seq %d: %d bytes, latency %v, aged=%v late=%v recovered=%v\n",
					m.Experiment, m.Seq, len(m.Payload), m.Latency, m.Aged, m.Late, m.Recovered)
			}
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtp-recv:", err)
		os.Exit(1)
	}
	defer recv.Close()
	fmt.Printf("dmtp-recv: listening on %s\n", recv.Addr())

	if *debugAddr != "" || *blackboxDir != "" {
		reg = metrics.NewRegistry()
		recv.RegisterMetrics(reg)
		metrics.RegisterProcessMetrics(reg)
		metrics.RegisterFlightMetrics(reg, rec)
		if tracer != nil {
			tracer.RegisterMetrics(reg)
		}
	}
	if *debugAddr != "" {
		dbg, err := debugsrv.New(debugsrv.Config{Addr: *debugAddr, Registry: reg, Recorder: rec, Tracer: tracer})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmtp-recv:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("dmtp-recv: debug endpoint on http://%s\n", dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			st := recv.Stats()
			fmt.Printf("delivered %d  recovered %d  lost %d  naks %d  aged %d  late %d  | latency %v\n",
				st.Delivered, st.Recovered, st.PermanentLoss, st.NAKsSent, st.Aged, st.Late, recv.LatencyHist)
		case <-sig:
			fmt.Printf("\nfinal: %+v\n", recv.Stats())
			if *traceOut != "" {
				writeTrace(*traceOut, tracer)
			}
			return
		}
	}
}

// writeTrace dumps the collector's reconstructed spans as trace-event JSON.
func writeTrace(path string, tracer *tracespan.Collector) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtp-recv:", err)
		return
	}
	defer f.Close()
	if err := tracer.WriteTraceJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "dmtp-recv:", err)
		return
	}
	fmt.Printf("dmtp-recv: %d spans written to %s\n", tracer.Sampled(), path)
}
