// Package debugsrv serves the live daemons' opt-in /debug endpoints: the
// metric registry as text or JSON, the flight recorder's recent protocol
// events, a health probe, and net/http/pprof — everything an operator
// needs to answer "why is this flow stalled" without restarting a daemon.
//
// The server is opt-in (the cmd/dmtp-* daemons pass -debug-addr) and
// off-datapath: scraping samples the registry's sets, each under one hold
// of its publisher's own lock, and costs the datapath nothing when nobody is
// scraping. The server's own traffic is itself observable via the
// debug.http_requests counter and the debug.scrape_ns histogram.
//
// Endpoints:
//
//	/metrics         text form, one metric per line ("name value")
//	/metrics?format=json  JSON array of samples
//	/metrics?format=prom  Prometheus text exposition (version 0.0.4)
//	/events          flight-recorder dump, oldest first, one line per event
//	/events?format=json   JSON array of events
//	/events?kind=K   only events of kind K ("nak-sent", "reshape", …)
//	/events?n=N      only the most recent N events (after kind filtering;
//	                 capped at the ring size)
//	/trace           collected spans as Chrome trace-event JSON (Perfetto)
//	/flows           the relay's flow table, one line per registered flow
//	/flows?format=json    JSON array of flows
//	/healthz         200 "ok" (liveness probe)
//	/healthz?probe=ready  readiness: 503 until the daemon can serve traffic
//	/fleet           dmtp-mon's aggregate fleet snapshot (text or JSON)
//	/alerts          dmtp-mon's invariant alert log (text or JSON)
//	/series          dmtp-mon's ring time-series (?name=&n=, text or JSON)
//	/debug/pprof/    the standard net/http/pprof handlers
//
// The /fleet, /alerts, and /series routes are live only when the daemon
// wires the corresponding hooks (cmd/dmtp-mon does); elsewhere they 404.
//
// See OBSERVABILITY.md for the metric catalogue, the event schema, and
// curl examples.
package debugsrv

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/tracespan"
)

// Config configures a debug server.
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:8001". The daemons
	// leave the server off unless -debug-addr is given.
	Addr string
	// Registry is the metric registry to expose; required.
	Registry *metrics.Registry
	// Recorder backs /events. Nil serves an empty event list.
	Recorder *metrics.FlightRecorder
	// Tracer backs /trace. Nil serves an empty (but schema-valid) trace
	// document.
	Tracer *tracespan.Collector
	// Flows backs /flows: a snapshot of the daemon's flow table. Nil
	// serves an empty list (single-flow daemons simply omit it).
	Flows func() []FlowInfo
	// Ready backs /healthz?probe=ready: it reports whether the daemon can
	// serve traffic, with a reason when it cannot (e.g. "journal replay
	// pending"). Nil means always ready — liveness and readiness coincide.
	Ready func() (bool, string)
	// Fleet backs /fleet with the monitor's aggregate snapshot. Nil 404s
	// the route (only dmtp-mon wires it).
	Fleet func() monitor.Fleet
	// Alerts backs /alerts with the monitor's alert log. Nil 404s the
	// route.
	Alerts func() []monitor.Alert
	// Series backs /series?name=&n= with one ring series' recent points
	// (ok=false 404s the name). Nil 404s the route.
	Series func(name string, n int) (pts []metrics.Point, ok bool)
	// SeriesNames lists the series /series can serve (the route's index
	// view). Nil with Series set serves an empty index.
	SeriesNames func() []string
}

// FlowInfo is one registered flow as served by /flows. The daemon
// converts from its own flow-table representation; debugsrv stays
// decoupled from the relay packages.
type FlowInfo struct {
	Src        string `json:"src"`
	Experiment uint32 `json:"experiment"`
	Dst        string `json:"dst"`
	Shard      int    `json:"shard"`
	Upgraded   uint64 `json:"upgraded"`
	Forwarded  uint64 `json:"forwarded"`
	IdleNs     int64  `json:"idle_ns"`
}

// Server is a running debug endpoint.
type Server struct {
	cfg      Config
	ln       net.Listener
	srv      *http.Server
	requests *metrics.Counter
	scrapeNs *metrics.Histogram
}

// New binds the debug listener and starts serving. The returned server's
// Addr reports the concrete bound address (useful with port 0 in tests).
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("debugsrv: Config.Registry is required")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("debugsrv: listen %q: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		requests: cfg.Registry.Counter(metrics.MetricDebugRequests),
		scrapeNs: cfg.Registry.Histogram(metrics.MetricDebugScrapeNs),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/flows", s.handleFlows)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.Fleet != nil {
		mux.HandleFunc("/fleet", s.handleFleet)
	}
	if cfg.Alerts != nil {
		mux.HandleFunc("/alerts", s.handleAlerts)
	}
	if cfg.Series != nil {
		mux.HandleFunc("/series", s.handleSeries)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's bound address ("host:port").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and its listener.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	start := time.Now()
	switch r.URL.Query().Get("format") {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		s.cfg.Registry.WriteJSON(w)
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.cfg.Registry.WriteProm(w)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.cfg.Registry.WriteText(w)
	}
	s.scrapeNs.ObserveDuration(time.Since(start))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	start := time.Now()
	q := r.URL.Query()
	events := s.cfg.Recorder.Snapshot()
	if kindName := q.Get("kind"); kindName != "" {
		kind, ok := metrics.EventKindFromName(kindName)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown event kind %q (valid kinds: %s)",
				kindName, strings.Join(metrics.EventKindNames(), ", ")), http.StatusBadRequest)
			return
		}
		kept := events[:0]
		for _, ev := range events {
			if ev.Kind == kind {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	if nStr := q.Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad n %q", nStr), http.StatusBadRequest)
			return
		}
		// The ring can never hold more than Cap events, so any larger
		// request is clamped rather than treated as "unfiltered".
		if c := s.cfg.Recorder.Cap(); n > c {
			n = c
		}
		if n < len(events) {
			events = events[len(events)-n:]
		}
	}
	if q.Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		writeEventsJSON(w, events)
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, ev := range events {
			fmt.Fprintln(w, ev.String())
		}
	}
	s.scrapeNs.ObserveDuration(time.Since(start))
}

// handleTrace serves the span collector's records as Chrome trace-event
// JSON — load the response in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	s.requests.Inc()
	start := time.Now()
	w.Header().Set("Content-Type", "application/json")
	s.cfg.Tracer.WriteTraceJSON(w)
	s.scrapeNs.ObserveDuration(time.Since(start))
}

// handleFlows serves the daemon's flow table: one line per flow as text,
// or a JSON array with ?format=json ([] when the table is empty or no
// snapshot hook is wired, never null).
func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	start := time.Now()
	var flows []FlowInfo
	if s.cfg.Flows != nil {
		flows = s.cfg.Flows()
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if flows == nil {
			flows = []FlowInfo{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(flows)
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, f := range flows {
			fmt.Fprintf(w, "flow src=%s exp=%d dst=%s shard=%d upgraded=%d forwarded=%d idle=%s\n",
				f.Src, f.Experiment, f.Dst, f.Shard, f.Upgraded, f.Forwarded,
				time.Duration(f.IdleNs))
		}
	}
	s.scrapeNs.ObserveDuration(time.Since(start))
}

// handleHealthz serves liveness (200 "ok" whenever the process answers)
// and, with ?probe=ready, readiness: 503 with the daemon's reason while
// it cannot serve traffic — e.g. a relay whose journal replay has not
// finished or whose listen socket is not bound yet.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.URL.Query().Get("probe") == "ready" && s.cfg.Ready != nil {
		if ok, reason := s.cfg.Ready(); !ok {
			http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleFleet serves the monitor's aggregate fleet snapshot.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	start := time.Now()
	f := s.cfg.Fleet()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(f)
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "delivered/s %.1f  naks/s %.1f  retransmits/s %.1f  flow-churn/s %.1f\n",
			f.DeliveredPerSec, f.NAKsPerSec, f.RetransmitsPerSec, f.FlowChurnPerSec)
		fmt.Fprintf(w, "flows %d  outstanding-gaps %d  journal-pending %d  alerts-active %d\n",
			f.FlowsActive, f.OutstandingGaps, f.JournalPending, f.AlertsActive)
		for _, t := range f.Targets {
			status := "up"
			if !t.Up {
				status = "down " + t.Err
			}
			fmt.Fprintf(w, "target %s url=%s uptime=%ds restarts=%d %s\n",
				t.Name, t.URL, t.UptimeSec, t.Restarts, status)
		}
	}
	s.scrapeNs.ObserveDuration(time.Since(start))
}

// handleAlerts serves the monitor's invariant alert log, raise order.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	start := time.Now()
	alerts := s.cfg.Alerts()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if alerts == nil {
			alerts = []monitor.Alert{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(alerts)
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, a := range alerts {
			state := "cleared"
			if a.Active {
				state = "active"
			}
			fmt.Fprintf(w, "alert target=%s check=%s state=%s count=%d detail=%q\n",
				a.Target, a.Check, state, a.Count, a.Detail)
		}
	}
	s.scrapeNs.ObserveDuration(time.Since(start))
}

// handleSeries serves one ring time-series (?name=<target>/<metric>,
// optional ?n= most-recent cap) or, with no name, the sorted series
// index.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	start := time.Now()
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		var names []string
		if s.cfg.SeriesNames != nil {
			names = s.cfg.SeriesNames()
		}
		if q.Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if names == nil {
				names = []string{}
			}
			json.NewEncoder(w).Encode(names)
		} else {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, n := range names {
				fmt.Fprintln(w, n)
			}
		}
		s.scrapeNs.ObserveDuration(time.Since(start))
		return
	}
	n := 0
	if nStr := q.Get("n"); nStr != "" {
		var err error
		n, err = strconv.Atoi(nStr)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad n %q", nStr), http.StatusBadRequest)
			return
		}
	}
	pts, ok := s.cfg.Series(name, n)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown series %q", name), http.StatusNotFound)
		return
	}
	if q.Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if pts == nil {
			pts = []metrics.Point{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(pts)
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, p := range pts {
			fmt.Fprintf(w, "%d %d\n", p.At, p.Value)
		}
	}
	s.scrapeNs.ObserveDuration(time.Since(start))
}

// writeEventsJSON renders events as an indented JSON array ([] when empty,
// never null, so scripted consumers can iterate unconditionally).
func writeEventsJSON(w io.Writer, events []metrics.Event) {
	if events == nil {
		events = []metrics.Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(events)
}
