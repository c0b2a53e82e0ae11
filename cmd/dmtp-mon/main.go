// Command dmtp-mon is the fleet monitor: it scrapes the /metrics
// endpoints of N daemons on an interval, derives aggregate fleet health,
// runs the invariant watchdogs (stash balance, journal replay balance,
// monotone counters) on every scrape window, and serves the result on
// its own debug endpoint (/fleet, /alerts, /series — plus the monitor's
// own /metrics).
//
//	dmtp-mon -targets relay=127.0.0.1:8002,recv=127.0.0.1:8003 -listen 127.0.0.1:8010
//	dmtp-mon -targets 127.0.0.1:8002 -watch
//	dmtp-mon -postmortem /var/dmtp/journal/blackbox-4242-1700000000.json
//
// With -postmortem it instead pretty-prints a crash black box written by
// a daemon (see -blackbox-dir on the daemons) and exits; -trace-out
// additionally exports the box's event timeline as Perfetto trace JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/debugsrv"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/tracespan"
)

func main() {
	targets := flag.String("targets", "", "comma-separated daemons to scrape, each name=host:port (bare host:port allowed)")
	interval := flag.Duration("interval", time.Second, "scrape interval")
	history := flag.Int("history", 512, "ring points kept per metric series")
	listenAddr := flag.String("listen", "", "serve /fleet, /alerts, /series and the monitor's own /metrics on this address (off when empty)")
	watch := flag.Bool("watch", false, "render a one-screen fleet view in the terminal every interval")
	postmortem := flag.String("postmortem", "", "pretty-print a crash black-box file and exit")
	traceOut := flag.String("trace-out", "", "with -postmortem: also write the box's event timeline as Perfetto trace JSON")
	flag.Parse()

	if *postmortem != "" {
		if err := runPostmortem(os.Stdout, *postmortem, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "dmtp-mon:", err)
			os.Exit(1)
		}
		return
	}

	parsed, err := parseTargets(*targets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtp-mon:", err)
		os.Exit(1)
	}
	mon := monitor.New(monitor.Config{
		Targets:  parsed,
		Interval: *interval,
		History:  *history,
		OnAlert: func(a monitor.Alert) {
			fmt.Fprintf(os.Stderr, "dmtp-mon: ALERT target=%s check=%s: %s\n", a.Target, a.Check, a.Detail)
		},
	})
	mon.Start()
	defer mon.Stop()

	if *listenAddr != "" {
		reg := metrics.NewRegistry()
		mon.RegisterMetrics(reg)
		metrics.RegisterProcessMetrics(reg)
		dbg, err := debugsrv.New(debugsrv.Config{
			Addr:        *listenAddr,
			Registry:    reg,
			Fleet:       mon.Fleet,
			Alerts:      mon.Alerts,
			Series:      mon.SeriesPoints,
			SeriesNames: mon.SeriesNames,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmtp-mon:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("dmtp-mon: fleet endpoint on http://%s\n", dbg.Addr())
	}

	fmt.Printf("dmtp-mon: scraping %d targets every %v\n", len(parsed), *interval)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if *watch {
				// ANSI clear + home, then the one-screen view.
				fmt.Print("\x1b[2J\x1b[H")
				mon.WriteWatch(os.Stdout)
			}
		case <-sig:
			fmt.Println()
			mon.WriteWatch(os.Stdout)
			return
		}
	}
}

// parseTargets parses -targets: comma-separated name=url entries; a bare
// url gets an auto name t<i>.
func parseTargets(s string) ([]monitor.Target, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("no targets: pass -targets name=host:port[,name=host:port...]")
	}
	var out []monitor.Target
	for i, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, found := strings.Cut(part, "=")
		if !found {
			name, url = fmt.Sprintf("t%d", i), part
		}
		if name == "" || url == "" {
			return nil, fmt.Errorf("bad target %q: want name=host:port", part)
		}
		out = append(out, monitor.Target{Name: name, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no targets: pass -targets name=host:port[,name=host:port...]")
	}
	return out, nil
}

// runPostmortem loads a black-box file, prints its report to w, and
// optionally exports the box's events as Perfetto trace JSON.
func runPostmortem(w io.Writer, path, traceOut string) error {
	box, err := metrics.ReadBox(path)
	if err != nil {
		return err
	}
	writeReport(w, box)
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		err = tracespan.WriteFlightTrace(f, box.Events)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\ntrace written to %s\n", traceOut)
	}
	return nil
}

// writeReport pretty-prints a box: the header, the nonzero metrics, every
// gap's recovery lifecycle the ring still covers, and the event timeline.
func writeReport(w io.Writer, b *metrics.Box) {
	at := time.Unix(0, b.UnixNano).UTC()
	fmt.Fprintf(w, "black box: role=%s pid=%d captured=%s\n", b.Role, b.PID, at.Format(time.RFC3339Nano))
	fmt.Fprintf(w, "reason: %s\n", b.Reason)

	fmt.Fprintf(w, "\n== final metrics (nonzero) ==\n")
	for _, s := range b.Metrics {
		if s.Kind == metrics.KindHist {
			fmt.Fprintf(w, "%-44s count=%d mean=%d p50=%d p99=%d max=%d\n", s.Name, s.Value, s.Mean, s.P50, s.P99, s.Max)
		} else if s.Value != 0 {
			fmt.Fprintf(w, "%-44s %d\n", s.Name, s.Value)
		}
	}

	if spans := metrics.RecoverySpans(b.Events); len(spans) > 0 {
		fmt.Fprintf(w, "\n== recovery spans (reconstructed from the flight ring) ==\n")
		for _, sp := range spans {
			fmt.Fprintf(w, "exp=%#x seq=%d  gap opened %s  ", sp.Exp, sp.Seq, eventTime(sp.OpenedAt))
			if sp.Outcome == 0 {
				fmt.Fprintln(w, "UNRESOLVED at crash")
				continue
			}
			outcome := "recovered"
			if sp.Outcome == metrics.EvWriteOff {
				outcome = "written-off"
			}
			fmt.Fprintf(w, "%s after %s (%d NAKs)\n", outcome, time.Duration(sp.ClosedAt-sp.OpenedAt), sp.NAKs)
		}
	}

	fmt.Fprintf(w, "\n== event timeline (%d events) ==\n", len(b.Events))
	for _, ev := range b.Events {
		fmt.Fprintln(w, ev.String())
	}
}

// eventTime renders an event timestamp as Event.String does, unpadded.
func eventTime(at int64) string {
	if at >= int64(1)<<53 {
		return time.Unix(0, at).UTC().Format("15:04:05.000000")
	}
	return time.Duration(at).String()
}
