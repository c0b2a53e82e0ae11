package monitor_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/debugsrv"
	"repro/internal/journal"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/monitor"
)

// waitFor polls cond up to timeout.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// serveRole registers the role's metrics plus the process gauges and
// binds a debug endpoint for it, exactly as the daemons wire it.
func serveRole(t *testing.T, reg *metrics.Registry, rec *metrics.FlightRecorder, ready func() (bool, string)) string {
	t.Helper()
	metrics.RegisterProcessMetrics(reg)
	srv, err := debugsrv.New(debugsrv.Config{Addr: "127.0.0.1:0", Registry: reg, Recorder: rec, Ready: ready})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestMonitorLiveFleet is the acceptance scenario: the live
// sender→relay→receiver pipeline on loopback with seeded injected drops,
// one monitor scraping all three. The induced loss must show up as a
// nonzero fleet NAK rate while none of the invariant watchdogs fire —
// packet loss is the protocol's job, not an accounting bug.
func TestMonitorLiveFleet(t *testing.T) {
	recv, err := live.NewReceiver(live.ReceiverConfig{
		Listen:   "127.0.0.1:0",
		NAKDelay: time.Millisecond,
		NAKRetry: 10 * time.Millisecond,
		MaxNAKs:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	relay, err := live.NewRelay(live.RelayConfig{
		Listen:         "127.0.0.1:0",
		Forward:        recv.Addr(),
		MaxAge:         5 * time.Second,
		DeadlineBudget: 10 * time.Second,
		DropEveryN:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	snd, err := live.NewSenderWithConfig(live.SenderConfig{Dst: relay.Addr(), Experiment: 777})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	sndReg, relayReg, recvReg := metrics.NewRegistry(), metrics.NewRegistry(), metrics.NewRegistry()
	snd.RegisterMetrics(sndReg)
	relay.RegisterMetrics(relayReg)
	recv.RegisterMetrics(recvReg)
	targets := []monitor.Target{
		{Name: "send", URL: serveRole(t, sndReg, nil, nil)},
		{Name: "relay", URL: serveRole(t, relayReg, nil, relay.Ready)},
		{Name: "recv", URL: serveRole(t, recvReg, nil, nil)},
	}

	var alerts []monitor.Alert
	var alertMu sync.Mutex
	mon := monitor.New(monitor.Config{
		Targets:  targets,
		Interval: 20 * time.Millisecond,
		History:  128,
		OnAlert: func(a monitor.Alert) {
			alertMu.Lock()
			alerts = append(alerts, a)
			alertMu.Unlock()
		},
	})
	mon.Start()
	defer mon.Stop()
	// Baseline sweep before any traffic so the NAK series starts at zero
	// and the later rise is observable regardless of scheduling.
	waitFor(t, 5*time.Second, func() bool {
		f := mon.Fleet()
		for _, th := range f.Targets {
			if th.LastScrapeUnixNano == 0 {
				return false
			}
		}
		return true
	}, "first sweep")

	const n = 300
	var maxNAKRate float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := snd.Send([]byte(fmt.Sprintf("payload-%04d", i)), 0); err != nil {
				t.Error(err)
				return
			}
			if i%25 == 24 {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	waitFor(t, 15*time.Second, func() bool {
		if f := mon.Fleet(); f.NAKsPerSec > maxNAKRate {
			maxNAKRate = f.NAKsPerSec
		}
		st := recv.Stats()
		return st.Delivered+st.PermanentLoss >= n-1 && recv.OutstandingGaps() == 0
	}, "recovery")
	<-done
	// A few more sweeps so the final counters land in the rings.
	time.Sleep(100 * time.Millisecond)
	mon.Stop()

	// The fleet NAK rate must have been nonzero at some window. Fleet()
	// polling may miss the burst on a fast machine, so also differentiate
	// the ring directly — the same data the /series endpoint serves.
	if maxNAKRate == 0 {
		pts, _ := mon.SeriesPoints("fleet/naks", 0)
		for i := 1; i < len(pts); i++ {
			if dv, dt := pts[i].Value-pts[i-1].Value, pts[i].At-pts[i-1].At; dv > 0 && dt > 0 {
				if r := float64(dv) / (float64(dt) / 1e9); r > maxNAKRate {
					maxNAKRate = r
				}
			}
		}
	}
	if maxNAKRate == 0 {
		t.Error("fleet NAK rate stayed zero despite seeded drops")
	}
	f := mon.Fleet()
	for _, th := range f.Targets {
		if !th.Up {
			t.Errorf("target %s down: %s", th.Name, th.Err)
		}
		if th.Restarts != 0 {
			t.Errorf("target %s shows %d phantom restarts", th.Name, th.Restarts)
		}
	}
	if got := mon.Alerts(); len(got) != 0 {
		t.Errorf("invariant alerts on a healthy fleet: %+v", got)
	}
	alertMu.Lock()
	defer alertMu.Unlock()
	if len(alerts) != 0 {
		t.Errorf("OnAlert fired on a healthy fleet: %+v", alerts)
	}

	// The fleet ring series exist and saw the traffic.
	pts, ok := mon.SeriesPoints("fleet/naks", 0)
	if !ok || len(pts) == 0 {
		t.Fatalf("fleet/naks series missing (ok=%v len=%d)", ok, len(pts))
	}
	if last := pts[len(pts)-1]; last.Value == 0 {
		t.Errorf("fleet/naks never became nonzero")
	}
	if pts, ok := mon.SeriesPoints("recv/"+metrics.MetricRxDelivered, 0); !ok || len(pts) == 0 || pts[len(pts)-1].Value == 0 {
		t.Errorf("per-target delivered series missing or zero (ok=%v)", ok)
	}
	if _, ok := mon.SeriesPoints("recv/no.such.metric", 0); ok {
		t.Error("unknown series reported ok")
	}
}

// TestMonitorJournalImbalanceAlert is the watchdog self-test the issue
// demands: a journaled relay crash-restarts through a deliberately broken
// replay (journal.ReplayDropBias), and the journal-balance watchdog must
// raise an alert within two scrape windows. A watchdog that cannot fire
// is not evidence.
func TestMonitorJournalImbalanceAlert(t *testing.T) {
	recv, err := live.NewReceiver(live.ReceiverConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	relay, err := live.NewRelay(live.RelayConfig{
		Listen:     "127.0.0.1:0",
		Forward:    recv.Addr(),
		MaxAge:     time.Minute,
		JournalDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	snd, err := live.NewSenderWithConfig(live.SenderConfig{Dst: relay.Addr(), Experiment: 777})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	relayReg := metrics.NewRegistry()
	relay.RegisterMetrics(relayReg)
	addr := serveRole(t, relayReg, nil, relay.Ready)

	for i := 0; i < 50; i++ {
		if err := snd.Send([]byte(fmt.Sprintf("payload-%04d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// The bias drops every second append record, so the replay needs two:
	// a crash after the first forward alone would replay in balance.
	waitFor(t, 5*time.Second, func() bool { return relay.Stats().Forwarded >= 2 }, "relay traffic")

	relay.Crash()
	journal.ReplayDropBias = 2
	err = relay.Restart()
	journal.ReplayDropBias = 0
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}

	var fired []monitor.Alert
	mon := monitor.New(monitor.Config{
		Targets: []monitor.Target{{Name: "relay", URL: addr}},
		OnAlert: func(a monitor.Alert) { fired = append(fired, a) },
	})
	// Window 1 sees the imbalance; the debounce holds the alert back.
	mon.ScrapeOnce()
	if got := mon.Alerts(); len(got) != 0 {
		t.Fatalf("alert raised after one window, debounce broken: %+v", got)
	}
	// Window 2 confirms it.
	mon.ScrapeOnce()
	var journalAlert *monitor.Alert
	for _, a := range mon.Alerts() {
		a := a
		if a.Check == "journal-replay-balance" {
			journalAlert = &a
		}
	}
	if journalAlert == nil {
		t.Fatalf("journal-balance watchdog never fired: %+v", mon.Alerts())
	}
	if !journalAlert.Active || journalAlert.Target != "relay" {
		t.Errorf("alert = %+v", journalAlert)
	}
	if len(fired) == 0 {
		t.Error("OnAlert callback never invoked")
	}
	if f := mon.Fleet(); f.AlertsActive == 0 {
		t.Error("Fleet().AlertsActive = 0 with an active alert")
	}
}

// syntheticTarget serves scripted /metrics?format=json windows.
type syntheticTarget struct {
	mu      sync.Mutex
	samples []metrics.Sample
}

func (s *syntheticTarget) set(kv map[string]int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = s.samples[:0]
	for name, v := range kv {
		s.samples = append(s.samples, metrics.Sample{Name: name, Kind: metrics.KindCounter, Value: v})
	}
}

func (s *syntheticTarget) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.samples)
}

// TestMonitorDebounceAndRestartSuppression drives the monotone watchdog
// through a scripted target: one regressing window must not alert
// (debounce), two must, recovery deactivates the alert, and a counter
// reset accompanied by an uptime drop is a restart — suppressed entirely.
func TestMonitorDebounceAndRestartSuppression(t *testing.T) {
	tgt := &syntheticTarget{}
	srv := httptest.NewServer(tgt)
	defer srv.Close()

	var fired []monitor.Alert
	mon := monitor.New(monitor.Config{
		Targets: []monitor.Target{{Name: "synth", URL: srv.URL}},
		OnAlert: func(a monitor.Alert) { fired = append(fired, a) },
	})

	window := func(delivered, uptime int64) {
		tgt.set(map[string]int64{
			metrics.MetricRxDelivered: delivered,
			metrics.MetricProcUptime:  uptime,
		})
		mon.ScrapeOnce()
	}

	window(100, 10)
	window(90, 11) // first regression window: finding, no alert yet
	if got := mon.Alerts(); len(got) != 0 {
		t.Fatalf("alert after one bad window, debounce broken: %+v", got)
	}
	window(80, 12) // second consecutive window: alert
	alerts := mon.Alerts()
	if len(alerts) != 1 || alerts[0].Check != "monotone-counter" || !alerts[0].Active {
		t.Fatalf("alerts after confirmation = %+v", alerts)
	}
	if alerts[0].Metric != metrics.MetricRxDelivered {
		t.Errorf("alert metric = %q, want %q", alerts[0].Metric, metrics.MetricRxDelivered)
	}
	if len(fired) != 1 {
		t.Fatalf("OnAlert fired %d times, want 1", len(fired))
	}
	window(85, 13) // counter rises again: alert latches inactive
	alerts = mon.Alerts()
	if len(alerts) != 1 || alerts[0].Active {
		t.Fatalf("alert should deactivate once the condition clears: %+v", alerts)
	}
	if len(fired) != 1 {
		t.Errorf("deactivation re-fired OnAlert")
	}

	// Process restart: delivered collapses but uptime went backwards too —
	// baselines reset, no new alert, restart counted.
	window(3, 1)
	if got := mon.Alerts(); len(got) != 1 {
		t.Fatalf("restart raised a monotone alert: %+v", got)
	}
	f := mon.Fleet()
	if len(f.Targets) != 1 || f.Targets[0].Restarts != 1 {
		t.Fatalf("restart not detected: %+v", f.Targets)
	}
}

// TestMonitorTargetDownAndBack covers scrape failure handling: a dead
// target is marked down with its error, contributes nothing to the fleet
// sums, and recovers cleanly.
func TestMonitorTargetDownAndBack(t *testing.T) {
	tgt := &syntheticTarget{}
	tgt.set(map[string]int64{metrics.MetricRxDelivered: 7, metrics.MetricProcUptime: 5})
	srv := httptest.NewServer(tgt)
	defer srv.Close()

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	mon := monitor.New(monitor.Config{Targets: []monitor.Target{
		{Name: "alive", URL: srv.URL},
		{Name: "dead", URL: deadURL},
	}})
	mon.ScrapeOnce()
	f := mon.Fleet()
	if len(f.Targets) != 2 {
		t.Fatalf("targets = %+v", f.Targets)
	}
	for _, th := range f.Targets {
		switch th.Name {
		case "alive":
			if !th.Up {
				t.Errorf("alive target down: %s", th.Err)
			}
		case "dead":
			if th.Up || th.Err == "" {
				t.Errorf("dead target not reported: %+v", th)
			}
		}
	}
	if len(mon.Alerts()) != 0 {
		t.Errorf("a down target must not raise invariant alerts: %+v", mon.Alerts())
	}
}

// TestMonitorSelfMetrics checks the mon.* registry surface.
func TestMonitorSelfMetrics(t *testing.T) {
	tgt := &syntheticTarget{}
	tgt.set(map[string]int64{metrics.MetricProcUptime: 1})
	srv := httptest.NewServer(tgt)
	defer srv.Close()

	mon := monitor.New(monitor.Config{Targets: []monitor.Target{{Name: "synth", URL: srv.URL}}})
	reg := metrics.NewRegistry()
	mon.RegisterMetrics(reg)
	mon.ScrapeOnce()
	mon.ScrapeOnce()

	snap := reg.Snapshot()
	if v, _ := metrics.SampleValue(snap, metrics.MetricMonScrapes); v != 2 {
		t.Errorf("%s = %d, want 2", metrics.MetricMonScrapes, v)
	}
	if v, _ := metrics.SampleValue(snap, metrics.MetricMonTargetsUp); v != 1 {
		t.Errorf("%s = %d, want 1", metrics.MetricMonTargetsUp, v)
	}
	if v, _ := metrics.SampleValue(snap, metrics.MetricMonScrapeNs); v != 2 {
		t.Errorf("%s count = %d, want 2", metrics.MetricMonScrapeNs, v)
	}
	for _, s := range snap {
		if !metrics.CatalogCovers(s.Name) {
			t.Errorf("monitor exports uncatalogued metric %q", s.Name)
		}
	}
}

// TestMonitorScrapeBounded pins the bounded-footprint claims: ring
// series never outgrow History, the series set reaches steady state, and
// a scrape tick's allocations stay bounded (the HTTP round trip
// allocates, the storage path must not grow it).
func TestMonitorScrapeBounded(t *testing.T) {
	tgt := &syntheticTarget{}
	tgt.set(map[string]int64{
		metrics.MetricRxDelivered: 1,
		metrics.MetricRxNAKsSent:  2,
		metrics.MetricProcUptime:  3,
	})
	srv := httptest.NewServer(tgt)
	defer srv.Close()

	mon := monitor.New(monitor.Config{
		Targets: []monitor.Target{{Name: "synth", URL: srv.URL}},
		History: 16,
	})
	mon.ScrapeOnce()
	names := len(mon.SeriesNames())

	allocs := testing.AllocsPerRun(200, func() { mon.ScrapeOnce() })
	// The bound is deliberately loose — it covers the whole HTTP GET and
	// JSON decode — but it fails on a leak that scales with scrape count.
	if allocs > 300 {
		t.Errorf("ScrapeOnce allocates %.0f objects per tick", allocs)
	}
	if got := len(mon.SeriesNames()); got != names {
		t.Errorf("series set grew from %d to %d under a steady target", names, got)
	}
	pts, _ := mon.SeriesPoints("fleet/naks", 0)
	if len(pts) > 16 {
		t.Errorf("ring outgrew History: %d points", len(pts))
	}
}
