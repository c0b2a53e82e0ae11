// Command dmtp-relay runs the live-path software network element: it
// upgrades mode-0 DMTP datagrams for the reliable segment (sequence
// numbers, retransmission-buffer pointer, age budget, origin timestamp),
// buffers them, forwards to the receiver, and serves NAKs.
//
//	dmtp-relay -listen 127.0.0.1:17580 -forward 127.0.0.1:17581 -drop-every 10 -debug-addr 127.0.0.1:8002
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/internal/debugsrv"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/tracespan"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:17580", "UDP listen address")
	forward := flag.String("forward", "127.0.0.1:17581", "receiver address")
	maxAge := flag.Duration("max-age", 500*time.Millisecond, "age budget")
	deadline := flag.Duration("deadline", time.Second, "delivery budget")
	dropEvery := flag.Int("drop-every", 0, "drop every Nth data packet (fault injection)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /events, /flows and pprof on this address (off when empty)")
	traceSample := flag.Int("trace-sample", 0, "originate an in-band trace on every Nth untraced upgrade (0 = off)")
	traceOut := flag.String("trace-out", "", "write the flight-recorder timeline as Perfetto trace JSON on exit")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "stash and journal partitions experiments are spread across")
	maxFlows := flag.Int("max-flows", 0, "flow-table bound; registrations beyond it are rejected (0 = unlimited)")
	journalDir := flag.String("journal-dir", "", "stash write-ahead journal directory; on restart the stash is replayed from it (off when empty)")
	journalSync := flag.String("journal-sync", "batch", "journal fsync policy: batch or none")
	blackboxDir := flag.String("blackbox-dir", "", "write a crash black box (flight ring + final metrics) here on panic; defaults to -journal-dir when set")
	flag.Parse()
	if *blackboxDir == "" {
		*blackboxDir = *journalDir
	}

	var rec *metrics.FlightRecorder
	if *debugAddr != "" || *traceOut != "" || *blackboxDir != "" {
		rec = metrics.NewFlightRecorder(0)
	}
	var reg *metrics.Registry
	if *blackboxDir != "" {
		dir := *blackboxDir
		defer func() {
			if v := recover(); v != nil {
				if path, err := metrics.WriteBox(dir, "relay", fmt.Sprintf("panic: %v", v), reg, rec); err != nil {
					fmt.Fprintln(os.Stderr, "dmtp-relay:", err)
				} else {
					fmt.Fprintf(os.Stderr, "dmtp-relay: black box written to %s\n", path)
				}
				panic(v)
			}
		}()
	}
	relay, err := live.NewRelay(live.RelayConfig{
		Listen:         *listen,
		Forward:        *forward,
		MaxAge:         *maxAge,
		DeadlineBudget: *deadline,
		DropEveryN:     *dropEvery,
		Recorder:       rec,
		TraceSample:    *traceSample,
		Shards:         *shards,
		MaxFlows:       *maxFlows,
		JournalDir:     *journalDir,
		JournalSync:    *journalSync,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtp-relay:", err)
		os.Exit(1)
	}
	defer relay.Close()
	fmt.Printf("dmtp-relay: %s → %s (buffer at %v, %d shards)\n",
		relay.Addr(), *forward, relay.WireAddr(), *shards)
	if *journalDir != "" {
		replayed := 0
		for _, rec := range relay.JournalRecoveries() {
			replayed += len(rec.Entries)
		}
		fmt.Printf("dmtp-relay: journal at %s (sync=%s), recovered %d stash entries\n",
			*journalDir, *journalSync, replayed)
	}

	if *debugAddr != "" || *blackboxDir != "" {
		reg = metrics.NewRegistry()
		relay.RegisterMetrics(reg)
		metrics.RegisterProcessMetrics(reg)
		metrics.RegisterFlightMetrics(reg, rec)
	}
	if *debugAddr != "" {
		dbg, err := debugsrv.New(debugsrv.Config{
			Addr: *debugAddr, Registry: reg, Recorder: rec,
			Flows: func() []debugsrv.FlowInfo { return debugFlows(relay) },
			Ready: relay.Ready,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmtp-relay:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("dmtp-relay: debug endpoint on http://%s\n", dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	usr1 := make(chan os.Signal, 1)
	notifyFlowDump(usr1)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			st := relay.Stats()
			fs := relay.FlowStats()
			fmt.Printf("upgraded %d  forwarded %d  naks %d  retransmits %d  misses %d  injected-drops %d  flows %d\n",
				st.Upgraded, st.Forwarded, st.NAKs, st.Retransmits, st.Misses, st.InjectedDrops, fs.Active)
		case <-usr1:
			printFlowTable(relay)
		case <-sig:
			st := relay.Stats()
			fmt.Printf("\nfinal: %+v\n", st)
			if *traceOut != "" {
				writeFlightTrace(*traceOut, rec)
			}
			return
		}
	}
}

// printFlowTable dumps the relay's flow table to stdout (SIGUSR1).
func printFlowTable(relay *live.Relay) {
	flows := relay.Flows()
	fs := relay.FlowStats()
	fmt.Printf("flow table: %d active (%d opened, %d expired, %d rejected)\n",
		fs.Active, fs.Opened, fs.Expired, fs.Rejected)
	for _, f := range flows {
		fmt.Printf("  src=%s exp=%d dst=%s shard=%d upgraded=%d forwarded=%d idle=%s\n",
			f.Src, f.Experiment, f.Dst, f.Shard, f.Upgraded, f.Forwarded,
			time.Duration(f.IdleNs))
	}
}

// debugFlows converts the relay's flow snapshot into debugsrv's transport-
// agnostic form for the /flows endpoint.
func debugFlows(relay *live.Relay) []debugsrv.FlowInfo {
	flows := relay.Flows()
	out := make([]debugsrv.FlowInfo, 0, len(flows))
	for _, f := range flows {
		out = append(out, debugsrv.FlowInfo{
			Src:        f.Src.String(),
			Experiment: uint32(f.Experiment),
			Dst:        f.Dst,
			Shard:      f.Shard,
			Upgraded:   f.Upgraded,
			Forwarded:  f.Forwarded,
			IdleNs:     f.IdleNs,
		})
	}
	return out
}

// writeFlightTrace dumps the recorder's timeline as trace-event JSON.
func writeFlightTrace(path string, rec *metrics.FlightRecorder) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtp-relay:", err)
		return
	}
	defer f.Close()
	if err := tracespan.WriteFlightTrace(f, rec.Snapshot()); err != nil {
		fmt.Fprintln(os.Stderr, "dmtp-relay:", err)
		return
	}
	fmt.Printf("dmtp-relay: flight trace written to %s\n", path)
}
