package debugsrv_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/debugsrv"
	"repro/internal/dmtp"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/tracespan"
	"repro/internal/wire"
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

// get fetches one debug URL and returns the body.
func get(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return string(body)
}

// scrape parses /metrics text output into name → value. Histogram lines
// ("name count=N mean=…") report their observation count.
func scrape(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, line := range strings.Split(get(t, addr, "/metrics"), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		val := fields[1]
		if cnt, ok := strings.CutPrefix(val, "count="); ok {
			val = cnt
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("unparseable metric line %q: %v", line, err)
		}
		out[fields[0]] = n
	}
	return out
}

// TestDebugEndpointsLiveLoopback is the acceptance scenario: the live
// sender→relay→receiver pipeline on loopback with scripted egress drops,
// a debug endpoint per role, and the loss/NAK/retransmit counters
// observed over HTTP on all three.
func TestDebugEndpointsLiveLoopback(t *testing.T) {
	relayRec := metrics.NewFlightRecorder(1024)
	recvRec := metrics.NewFlightRecorder(1024)

	recv, err := live.NewReceiver(live.ReceiverConfig{
		Listen:   "127.0.0.1:0",
		NAKDelay: time.Millisecond,
		NAKRetry: 10 * time.Millisecond,
		MaxNAKs:  10,
		Recorder: recvRec,
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
		Recorder:       relayRec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	snd, err := live.NewSenderWithConfig(live.SenderConfig{
		Dst:        relay.Addr(),
		Experiment: 777,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	// One registry + debug server per role, exactly as the daemons wire it.
	serve := func(reg *metrics.Registry, rec *metrics.FlightRecorder) string {
		t.Helper()
		metrics.RegisterProcessMetrics(reg)
		metrics.RegisterFlightMetrics(reg, rec)
		srv, err := debugsrv.New(debugsrv.Config{Addr: "127.0.0.1:0", Registry: reg, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv.Addr()
	}
	sndReg, relayReg, recvReg := metrics.NewRegistry(), metrics.NewRegistry(), metrics.NewRegistry()
	snd.RegisterMetrics(sndReg)
	relay.RegisterMetrics(relayReg)
	recv.RegisterMetrics(recvReg)
	sndAddr := serve(sndReg, nil)
	relayAddr := serve(relayReg, relayRec)
	recvAddr := serve(recvReg, recvRec)

	const n = 300
	for i := 0; i < n; i++ {
		if err := snd.Send([]byte(fmt.Sprintf("payload-%04d", i)), 0); err != nil {
			t.Fatal(err)
		}
		if i%25 == 24 {
			time.Sleep(time.Millisecond) // mode 0 is unreliable; don't outrun loopback
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		st := recv.Stats()
		return st.Delivered+st.PermanentLoss >= n-1 && recv.OutstandingGaps() == 0
	}, "recovery")

	sm, rm, cm := scrape(t, sndAddr), scrape(t, relayAddr), scrape(t, recvAddr)

	if sm[metrics.MetricTxSent] != n {
		t.Errorf("sender /metrics %s = %d, want %d", metrics.MetricTxSent, sm[metrics.MetricTxSent], n)
	}
	for _, name := range []string{
		metrics.MetricRelayInjectedDrops,
		metrics.MetricBufNAKsServed,
		metrics.MetricBufRetransmits,
		metrics.MetricRelayReshapePrefix + "1",
	} {
		if rm[name] == 0 {
			t.Errorf("relay /metrics %s = 0, want nonzero", name)
		}
	}
	for _, name := range []string{
		metrics.MetricRxGapsDetected,
		metrics.MetricRxNAKsSent,
		metrics.MetricRxRecovered,
	} {
		if cm[name] == 0 {
			t.Errorf("receiver /metrics %s = 0, want nonzero", name)
		}
	}
	// Loss accounting must agree across roles: everything the relay
	// dropped was either recovered or written off at the receiver.
	if got := cm[metrics.MetricRxRecovered] + cm[metrics.MetricRxWriteOffs]; got < rm[metrics.MetricRelayInjectedDrops]-1 {
		t.Errorf("recovered+write_offs = %d < injected drops %d", got, rm[metrics.MetricRelayInjectedDrops])
	}

	// Every exported name is catalogued (and therefore documented).
	for role, m := range map[string]map[string]int64{"sender": sm, "relay": rm, "receiver": cm} {
		for name := range m {
			if !metrics.CatalogCovers(name) {
				t.Errorf("%s exports uncatalogued metric %q", role, name)
			}
		}
	}

	// The flight recorders saw the protocol's decisions (reshapes are
	// counted, not recorded).
	relayEvents := get(t, relayAddr, "/events")
	for _, kind := range []string{"injected-drop", "nak-served"} {
		if !strings.Contains(relayEvents, kind) {
			t.Errorf("relay /events missing %q:\n%.400s", kind, relayEvents)
		}
	}
	recvEvents := get(t, recvAddr, "/events")
	for _, kind := range []string{"gap-detected", "nak-sent", "recovered"} {
		if !strings.Contains(recvEvents, kind) {
			t.Errorf("receiver /events missing %q:\n%.400s", kind, recvEvents)
		}
	}

	// JSON forms parse and carry the same data.
	var samples []metrics.Sample
	if err := json.Unmarshal([]byte(get(t, recvAddr, "/metrics?format=json")), &samples); err != nil {
		t.Fatalf("/metrics?format=json: %v", err)
	}
	if len(samples) == 0 {
		t.Error("/metrics?format=json returned no samples")
	}
	var events []metrics.Event
	if err := json.Unmarshal([]byte(get(t, recvAddr, "/events?format=json")), &events); err != nil {
		t.Fatalf("/events?format=json: %v", err)
	}
	if len(events) == 0 || events[0].Kind == 0 {
		t.Errorf("/events?format=json events lack kinds: %+v", events[:min(3, len(events))])
	}

	// Prometheus exposition: right content type, sanitized names, TYPE
	// metadata, and the delivered counter carrying the same value as the
	// JSON form.
	promResp, err := http.Get("http://" + recvAddr + "/metrics?format=prom")
	if err != nil {
		t.Fatalf("/metrics?format=prom: %v", err)
	}
	promBody, _ := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if ct := promResp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("prom Content-Type = %q, want version=0.0.4", ct)
	}
	prom := string(promBody)
	// The receiver exports dmtp.rx.delivered through its sampled set, so
	// its exposition type is gauge.
	if !strings.Contains(prom, "# TYPE dmtp_rx_delivered gauge") {
		t.Errorf("prom output lacks TYPE line for dmtp_rx_delivered:\n%.400s", prom)
	}
	if !strings.Contains(prom, fmt.Sprintf("dmtp_rx_delivered %d\n", cm[metrics.MetricRxDelivered])) {
		t.Errorf("prom dmtp_rx_delivered disagrees with text form %d", cm[metrics.MetricRxDelivered])
	}
	if !strings.Contains(prom, "_bucket{le=\"+Inf\"}") {
		t.Errorf("prom output lacks histogram buckets:\n%.400s", prom)
	}

	if body := get(t, recvAddr, "/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}
	// No Ready hook wired: readiness degrades to liveness.
	if body := get(t, recvAddr, "/healthz?probe=ready"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz?probe=ready without hook = %q", body)
	}
	// The endpoint meters itself; by now we've scraped it several times.
	if m := scrape(t, recvAddr); m[metrics.MetricDebugRequests] == 0 || m[metrics.MetricDebugScrapeNs] == 0 {
		t.Errorf("debug self-metrics missing: requests=%d scrapes=%d",
			m[metrics.MetricDebugRequests], m[metrics.MetricDebugScrapeNs])
	}
}

// TestDebugEventsEmptyAndNilRecorder covers the degenerate /events forms.
func TestDebugEventsEmptyAndNilRecorder(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := debugsrv.New(debugsrv.Config{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if body := get(t, srv.Addr(), "/events"); body != "" {
		t.Errorf("/events with no recorder = %q, want empty", body)
	}
	if body := strings.TrimSpace(get(t, srv.Addr(), "/events?format=json")); body != "[]" {
		t.Errorf("/events?format=json with no recorder = %q, want []", body)
	}
}

// TestDebugEventsFilters covers the /events query params: ?kind= keeps one
// event kind (400 on an unknown name), ?n= tail-limits (400 on garbage),
// and the two compose.
func TestDebugEventsFilters(t *testing.T) {
	rec := metrics.NewFlightRecorder(64)
	for i := uint64(1); i <= 5; i++ {
		rec.RecordAt(int64(i)*1000, metrics.EvNAKSent, 7, i, 0)
		rec.RecordAt(int64(i)*1000+500, metrics.EvRecovered, 7, i, 0)
	}
	reg := metrics.NewRegistry()
	srv, err := debugsrv.New(debugsrv.Config{Addr: "127.0.0.1:0", Registry: reg, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var events []metrics.Event
	if err := json.Unmarshal([]byte(get(t, srv.Addr(), "/events?kind=nak-sent&format=json")), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("?kind=nak-sent returned %d events, want 5: %+v", len(events), events)
	}
	for _, ev := range events {
		if ev.Kind != metrics.EvNAKSent {
			t.Fatalf("?kind=nak-sent leaked %+v", ev)
		}
	}

	if err := json.Unmarshal([]byte(get(t, srv.Addr(), "/events?n=3&format=json")), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[2].Seq != 5 || events[2].Kind != metrics.EvRecovered {
		t.Fatalf("?n=3 should keep the 3 newest events: %+v", events)
	}

	if err := json.Unmarshal([]byte(get(t, srv.Addr(), "/events?kind=recovered&n=2&format=json")), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Seq != 4 || events[1].Seq != 5 {
		t.Fatalf("?kind&n composition wrong: %+v", events)
	}

	for _, bad := range []string{"/events?kind=no-such-kind", "/events?n=banana", "/events?n=-1"} {
		resp, err := http.Get("http://" + srv.Addr() + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDebugEventsNBounds pins /events?n= edge semantics table-driven:
// n=0 is an empty (but valid) response, n beyond the ring capacity is
// clamped rather than rejected, and non-numeric or negative n is a 400.
func TestDebugEventsNBounds(t *testing.T) {
	const ringCap = 16
	rec := metrics.NewFlightRecorder(ringCap)
	for i := uint64(1); i <= 10; i++ {
		rec.RecordAt(int64(i)*1000, metrics.EvNAKSent, 7, i, 0)
	}
	reg := metrics.NewRegistry()
	srv, err := debugsrv.New(debugsrv.Config{Addr: "127.0.0.1:0", Registry: reg, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cases := []struct {
		n          string
		wantStatus int
		wantEvents int
	}{
		{"0", http.StatusOK, 0},
		{"5", http.StatusOK, 5},
		{"10", http.StatusOK, 10},
		{"15", http.StatusOK, 10},      // more than recorded, within the ring
		{"1000000", http.StatusOK, 10}, // beyond the ring: clamped to its capacity
		{"-1", http.StatusBadRequest, 0},
		{"banana", http.StatusBadRequest, 0},
		{"1e3", http.StatusBadRequest, 0},
	}
	for _, tc := range cases {
		resp, err := http.Get("http://" + srv.Addr() + "/events?format=json&n=" + tc.n)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("n=%s: status %d, want %d", tc.n, resp.StatusCode, tc.wantStatus)
			continue
		}
		if tc.wantStatus != http.StatusOK {
			continue
		}
		var events []metrics.Event
		if err := json.Unmarshal(body, &events); err != nil {
			t.Errorf("n=%s: %v", tc.n, err)
			continue
		}
		if len(events) != tc.wantEvents {
			t.Errorf("n=%s: %d events, want %d", tc.n, len(events), tc.wantEvents)
		}
		// The tail is kept, not the head.
		if len(events) > 0 && events[len(events)-1].Seq != 10 {
			t.Errorf("n=%s: last seq %d, want 10", tc.n, events[len(events)-1].Seq)
		}
	}
}

// TestHealthzReadinessJournaledRestart covers the readiness window the
// issue names: a journaled relay that crashed reports not-ready over
// HTTP (with the replay-pending reason) until Restart completes its
// journal replay and socket rebind, while liveness stays 200 throughout.
func TestHealthzReadinessJournaledRestart(t *testing.T) {
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
	reg := metrics.NewRegistry()
	relay.RegisterMetrics(reg)
	srv, err := debugsrv.New(debugsrv.Config{Addr: "127.0.0.1:0", Registry: reg, Ready: relay.Ready})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	probe := func() (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + "/healthz?probe=ready")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := probe(); code != http.StatusOK || strings.TrimSpace(body) != "ready" {
		t.Fatalf("fresh relay readiness = %d %q", code, body)
	}

	relay.Crash()
	code, body := probe()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("crashed relay readiness = %d %q, want 503", code, body)
	}
	if !strings.Contains(body, "journal replay pending") {
		t.Errorf("readiness reason = %q, want the replay-pending explanation", body)
	}
	// Liveness is about the process, not the datapath: still 200.
	if live := get(t, srv.Addr(), "/healthz"); strings.TrimSpace(live) != "ok" {
		t.Errorf("liveness during crash = %q", live)
	}

	if err := relay.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if code, body := probe(); code != http.StatusOK || strings.TrimSpace(body) != "ready" {
		t.Fatalf("restarted relay readiness = %d %q", code, body)
	}
}

// TestMonRoutesWithStubHooks covers /fleet, /alerts and /series through
// stub hooks (the shapes cmd/dmtp-mon wires), including the 404 contract
// on servers that don't wire them.
func TestMonRoutesWithStubHooks(t *testing.T) {
	reg := metrics.NewRegistry()
	fleet := monitor.Fleet{
		NAKsPerSec:   2.5,
		FlowsActive:  3,
		AlertsActive: 1,
		Targets: []monitor.TargetHealth{
			{Name: "relay", URL: "127.0.0.1:1", Up: true, UptimeSec: 9},
			{Name: "recv", URL: "127.0.0.1:2", Up: false, Err: "connection refused"},
		},
	}
	alerts := []monitor.Alert{
		{Target: "relay", Check: "stash-balance", Detail: "imbalance 64", Count: 3, Active: true},
	}
	series := map[string][]metrics.Point{
		"relay/dmtp.rx.delivered": {{At: 1, Value: 10}, {At: 2, Value: 20}},
	}
	srv, err := debugsrv.New(debugssrvConfigWithHooks(reg, fleet, alerts, series))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var gotFleet monitor.Fleet
	if err := json.Unmarshal([]byte(get(t, srv.Addr(), "/fleet?format=json")), &gotFleet); err != nil {
		t.Fatalf("/fleet: %v", err)
	}
	if gotFleet.NAKsPerSec != 2.5 || len(gotFleet.Targets) != 2 {
		t.Errorf("/fleet = %+v", gotFleet)
	}
	fleetText := get(t, srv.Addr(), "/fleet")
	for _, want := range []string{"naks/s 2.5", "target relay", "down connection refused"} {
		if !strings.Contains(fleetText, want) {
			t.Errorf("/fleet text lacks %q:\n%s", want, fleetText)
		}
	}

	var gotAlerts []monitor.Alert
	if err := json.Unmarshal([]byte(get(t, srv.Addr(), "/alerts?format=json")), &gotAlerts); err != nil {
		t.Fatalf("/alerts: %v", err)
	}
	if len(gotAlerts) != 1 || gotAlerts[0].Check != "stash-balance" {
		t.Errorf("/alerts = %+v", gotAlerts)
	}
	if text := get(t, srv.Addr(), "/alerts"); !strings.Contains(text, "state=active") {
		t.Errorf("/alerts text = %q", text)
	}

	if idx := get(t, srv.Addr(), "/series"); !strings.Contains(idx, "relay/dmtp.rx.delivered") {
		t.Errorf("/series index = %q", idx)
	}
	var pts []metrics.Point
	if err := json.Unmarshal([]byte(get(t, srv.Addr(), "/series?format=json&name=relay/dmtp.rx.delivered")), &pts); err != nil {
		t.Fatalf("/series: %v", err)
	}
	if len(pts) != 2 || pts[1].Value != 20 {
		t.Errorf("/series points = %+v", pts)
	}
	for path, wantStatus := range map[string]int{
		"/series?name=no/such": http.StatusNotFound,
		"/series?name=x&n=-2":  http.StatusBadRequest,
		"/series?name=x&n=zzz": http.StatusBadRequest,
	} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
	}

	// A daemon that doesn't wire the hooks 404s the routes entirely.
	bare, err := debugsrv.New(debugsrv.Config{Addr: "127.0.0.1:0", Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	for _, path := range []string{"/fleet", "/alerts", "/series"} {
		resp, err := http.Get("http://" + bare.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on a bare server: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// debugssrvConfigWithHooks builds a Config with all monitor hooks stubbed.
func debugssrvConfigWithHooks(reg *metrics.Registry, fleet monitor.Fleet, alerts []monitor.Alert, series map[string][]metrics.Point) debugsrv.Config {
	return debugsrv.Config{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Fleet:    func() monitor.Fleet { return fleet },
		Alerts:   func() []monitor.Alert { return alerts },
		Series: func(name string, n int) ([]metrics.Point, bool) {
			pts, ok := series[name]
			return pts, ok
		},
		SeriesNames: func() []string {
			var out []string
			for name := range series {
				out = append(out, name)
			}
			return out
		},
	}
}

// TestDebugEventsUnknownKindListsValid pins the error contract for
// /events?kind=: an unknown kind is a 400 whose body names the offending
// value and enumerates every valid kind, so the operator's typo comes
// back with the fix attached.
func TestDebugEventsUnknownKindListsValid(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := debugsrv.New(debugsrv.Config{
		Addr: "127.0.0.1:0", Registry: reg, Recorder: metrics.NewFlightRecorder(16),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/events?kind=nak-snet")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"nak-snet"`) {
		t.Fatalf("body does not echo the bad kind: %q", body)
	}
	for _, kind := range metrics.EventKindNames() {
		if !strings.Contains(string(body), kind) {
			t.Fatalf("body is missing valid kind %q: %q", kind, body)
		}
	}
}

// TestDebugTraceEndpoint covers /trace: the span collector's records come
// back as Chrome trace-event JSON, and a nil collector yields a valid
// empty document.
func TestDebugTraceEndpoint(t *testing.T) {
	tracer := tracespan.NewCollector(0)
	ext := wire.TraceExt{TraceID: 1, Flags: wire.TraceSampledFlag, HopCount: 1}
	ext.Hops[0] = wire.TraceHop{Hop: wire.TraceHopTx, Stamp: 1000}
	tracer.Observe(tracespan.Delivery{Trace: ext, Exp: wire.NewExperimentID(7, 0), Seq: 1, At: 2000})

	reg := metrics.NewRegistry()
	srv, err := debugsrv.New(debugsrv.Config{Addr: "127.0.0.1:0", Registry: reg, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.Addr(), "/trace")), &doc); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			spans++
		}
	}
	if spans != 2 { // tx + rx
		t.Fatalf("/trace span events = %d, want 2: %+v", spans, doc.TraceEvents)
	}

	// No collector configured: still valid JSON, zero events.
	bare, err := debugsrv.New(debugsrv.Config{Addr: "127.0.0.1:0", Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if err := json.Unmarshal([]byte(get(t, bare.Addr(), "/trace")), &doc); err != nil {
		t.Fatalf("/trace with nil tracer: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("/trace with nil tracer returned events: %+v", doc.TraceEvents)
	}
}

func TestDebugNewRequiresRegistry(t *testing.T) {
	if _, err := debugsrv.New(debugsrv.Config{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("New without a Registry should fail")
	}
}

// TestSimLiveMetricNameParity pins the name-parity claim: the simulator
// adapters and the live adapters export identical dmtp.rx.* and dmtp.buf.*
// name sets, because both register through internal/dmtp. It also pins
// that wire.pool.* is the live relay's alone — its stash log — that no
// other role, on either substrate, publishes a packet pool, and that every
// role emits each metric with its catalogued kind.
func TestSimLiveMetricNameParity(t *testing.T) {
	namesWith := func(reg *metrics.Registry, prefix string) []string {
		var out []string
		for _, n := range reg.Names() {
			if strings.HasPrefix(n, prefix) {
				out = append(out, n)
			}
		}
		return out
	}

	// Simulator substrate.
	nw := netsim.New(1)
	simRecv := core.NewReceiver(nw, "recv", wire.AddrFrom(10, 0, 2, 1, 7000), core.ReceiverConfig{})
	simBuf := core.NewBufferNode(nw, "dtn", wire.AddrFrom(10, 0, 1, 1, 7000), core.BufferConfig{
		Upgrade: dmtp.ModeWAN,
		Forward: wire.AddrFrom(10, 0, 2, 1, 7000),
		MaxAge:  time.Hour,
	})
	simSend := core.NewSender(nw, "sensor", wire.AddrFrom(10, 0, 0, 1, 7000), core.SenderConfig{
		Dst: wire.AddrFrom(10, 0, 1, 1, 7000),
	})
	simRecvReg, simBufReg, simSendReg := metrics.NewRegistry(), metrics.NewRegistry(), metrics.NewRegistry()
	simRecv.RegisterMetrics(simRecvReg)
	simBuf.RegisterMetrics(simBufReg)
	simSend.RegisterMetrics(simSendReg)

	// Live substrate.
	liveRecv, err := live.NewReceiver(live.ReceiverConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer liveRecv.Close()
	liveRelay, err := live.NewRelay(live.RelayConfig{
		Listen: "127.0.0.1:0", Forward: liveRecv.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer liveRelay.Close()
	liveSend, err := live.NewSenderWithConfig(live.SenderConfig{Dst: liveRelay.Addr(), Experiment: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer liveSend.Close()
	liveRecvReg, liveRelayReg, liveSendReg := metrics.NewRegistry(), metrics.NewRegistry(), metrics.NewRegistry()
	liveRecv.RegisterMetrics(liveRecvReg)
	liveRelay.RegisterMetrics(liveRelayReg)
	liveSend.RegisterMetrics(liveSendReg)

	for _, tc := range []struct {
		prefix   string
		sim, lve *metrics.Registry
	}{
		{"dmtp.rx.", simRecvReg, liveRecvReg},
		{"dmtp.buf.", simBufReg, liveRelayReg},
	} {
		s, l := namesWith(tc.sim, tc.prefix), namesWith(tc.lve, tc.prefix)
		if len(s) == 0 {
			t.Errorf("no %s* metrics on the simulator registry", tc.prefix)
		}
		if strings.Join(s, ",") != strings.Join(l, ",") {
			t.Errorf("%s* name sets differ:\n  sim:  %v\n  live: %v", tc.prefix, s, l)
		}
	}

	if len(namesWith(liveRelayReg, "wire.pool.")) == 0 {
		t.Error("no wire.pool.* metrics on the live relay's registry")
	}
	for _, tc := range []struct {
		role string
		reg  *metrics.Registry
	}{
		{"live receiver", liveRecvReg},
		{"live sender", liveSendReg},
		{"core receiver", simRecvReg},
		{"core buffer", simBufReg},
		{"core sender", simSendReg},
	} {
		if n := namesWith(tc.reg, "wire.pool."); len(n) > 0 {
			t.Errorf("%s publishes %v; wire.pool.* is the live relay's stash log", tc.role, n)
		}
	}

	// Every sample of every role is emitted with the kind metrics.Catalog
	// gives its name (or its family).
	catalogKind := func(name string) (metrics.Kind, bool) {
		for _, info := range metrics.Catalog {
			if info.Name == name || strings.HasSuffix(info.Name, "*") && strings.HasPrefix(name, strings.TrimSuffix(info.Name, "*")) {
				return info.Kind, true
			}
		}
		return "", false
	}
	for _, reg := range []*metrics.Registry{simRecvReg, simBufReg, simSendReg, liveRecvReg, liveRelayReg, liveSendReg} {
		for _, s := range reg.Snapshot() {
			if want, ok := catalogKind(s.Name); !ok || s.Kind != want {
				t.Errorf("%s emitted as %s, catalogued as %q", s.Name, s.Kind, want)
			}
		}
	}
}
