// Package monitor is the fleet-supervision layer: a monitor scrapes the
// JSON /metrics endpoint of N configured daemons on an interval, stores
// bounded ring time-series per metric, derives fleet-level health
// (aggregate delivery/NAK/retransmit rates, flow churn, journal flush
// lag), and promotes the campaign runner's invariant oracles to runtime
// watchdogs (internal/monitor/oracles) — stash balance, journal
// replay balance, and monotone-counter consistency evaluated on every
// scrape window, raising structured alerts.
//
// The monitor perturbs the fleet only by scraping: each sweep costs the
// targets one registry snapshot each, and the monitor's own storage is
// fixed-size rings, so memory is bounded regardless of runtime. An alert
// requires its condition to hold in two consecutive windows
// (confirmWindows), which filters one-window artifacts such as a scrape
// racing a journal replay.
//
// cmd/dmtp-mon wraps this package into a daemon with its own debug
// endpoint (/fleet, /alerts, /series) and a -watch terminal view.
package monitor

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/monitor/oracles"
)

// Target is one daemon to scrape: a display name and the base URL (or
// host:port) of its debug endpoint.
type Target struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Config configures a Monitor.
type Config struct {
	// Targets are the daemons to scrape.
	Targets []Target
	// Interval is the scrape period for Start (default 1 s).
	Interval time.Duration
	// History is each ring series' capacity in points (default 512).
	History int
	// OnAlert, when non-nil, is invoked (outside the monitor lock) once
	// for each newly raised alert.
	OnAlert func(Alert)
}

// Alert is one latched invariant violation. An alert is raised when a
// watchdog finding holds for two consecutive scrape windows, stays
// Active while the condition keeps holding, and remains in the log
// (inactive) after it clears.
type Alert struct {
	// UnixNano is when the alert was first raised.
	UnixNano int64 `json:"unix_nano"`
	// Target is the scraped daemon's configured name.
	Target string `json:"target"`
	// Check names the watchdog ("stash-balance", "journal-replay-balance",
	// "monotone-counter").
	Check string `json:"check"`
	// Metric is the offending metric for per-metric checks ("" otherwise).
	Metric string `json:"metric,omitempty"`
	// Detail is the most recent violation text, numbers inline.
	Detail string `json:"detail"`
	// Count is how many scrape windows observed the condition.
	Count uint64 `json:"count"`
	// Active reports whether the condition held in the latest window.
	Active bool `json:"active"`
}

// TargetHealth is one target's scrape status inside a Fleet snapshot.
type TargetHealth struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Up reports whether the most recent scrape succeeded.
	Up bool `json:"up"`
	// Err is the most recent scrape error ("" when up).
	Err string `json:"err,omitempty"`
	// UptimeSec is the target's own proc.uptime_seconds sample.
	UptimeSec int64 `json:"uptime_sec"`
	// Restarts counts detected process restarts (uptime decreasing).
	Restarts uint64 `json:"restarts"`
	// LastScrapeUnixNano is when the target was last scraped successfully.
	LastScrapeUnixNano int64 `json:"last_scrape_unix_nano"`
}

// Fleet is the aggregate health snapshot served on /fleet: per-target
// status plus derived fleet rates computed over the recent ring history.
type Fleet struct {
	UnixNano int64          `json:"unix_nano"`
	Targets  []TargetHealth `json:"targets"`
	// DeliveredPerSec is the fleet-wide delivery rate (sum of
	// dmtp.rx.delivered across targets, differentiated over the window).
	DeliveredPerSec float64 `json:"delivered_per_sec"`
	// NAKsPerSec is the fleet-wide NAK emission rate (dmtp.rx.naks_sent).
	NAKsPerSec float64 `json:"naks_per_sec"`
	// RetransmitsPerSec is the fleet-wide retransmission rate
	// (dmtp.buf.retransmits).
	RetransmitsPerSec float64 `json:"retransmits_per_sec"`
	// FlowChurnPerSec is the fleet-wide flow open+expire rate
	// (dmtp.relay.flows.opened + dmtp.relay.flows.expired).
	FlowChurnPerSec float64 `json:"flow_churn_per_sec"`
	// FlowsActive sums dmtp.relay.flows.active across targets.
	FlowsActive int64 `json:"flows_active"`
	// OutstandingGaps sums dmtp.rx.outstanding_gaps across targets.
	OutstandingGaps int64 `json:"outstanding_gaps"`
	// JournalPending sums the journal flush lag (dmtp.journal.pending).
	JournalPending int64 `json:"journal_pending"`
	// AlertsActive counts alerts whose condition held in the latest
	// window.
	AlertsActive int `json:"alerts_active"`
}

// confirmWindows is how many consecutive scrape windows a watchdog
// finding must hold before an alert is raised: 2 filters one-window
// artifacts (e.g. a scrape interleaving with a journal replay swapping
// the recovery gauges) while still catching every persistent violation.
const confirmWindows = 2

// rateSpan is how many ring points back the fleet rates differentiate
// over (clamped to available history): long enough to smooth one bursty
// window, short enough to track load changes.
const rateSpan = 5

// The fleet-level derived series names (exposed via /series as
// "fleet/<name>").
const (
	fleetDelivered   = "delivered"
	fleetNAKs        = "naks"
	fleetRetransmits = "retransmits"
	fleetFlowChurn   = "flow_churn"
)

// targetState is one target's scrape bookkeeping.
type targetState struct {
	cfg      Target
	up       bool
	err      string
	prev     []metrics.Sample // previous window (nil on first scrape / across restart)
	cur      []metrics.Sample
	lastAt   int64
	uptime   int64
	restarts uint64
	series   map[string]*metrics.Series
	// consec counts consecutive windows each finding key was observed.
	consec map[string]int
}

// Monitor scrapes a fleet and evaluates the runtime watchdogs. Create
// with New; drive with Start/Stop or ScrapeOnce.
type Monitor struct {
	cfg Config

	mu          sync.Mutex
	targets     []*targetState
	fleetSeries map[string]*metrics.Series
	alerts      map[string]*Alert // by finding key
	alertLog    []*Alert          // in raise order
	sweeps      uint64
	scrapeErrs  uint64
	raised      uint64

	scrapesC   atomic.Pointer[metrics.Counter]
	scrapeErrC atomic.Pointer[metrics.Counter]
	raisedC    atomic.Pointer[metrics.Counter]
	scrapeH    atomic.Pointer[metrics.Histogram]

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New returns a monitor for cfg's targets. It does not scrape until
// Start or ScrapeOnce.
func New(cfg Config) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.History <= 0 {
		cfg.History = 512
	}
	m := &Monitor{
		cfg:         cfg,
		fleetSeries: make(map[string]*metrics.Series),
		alerts:      make(map[string]*Alert),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for _, t := range cfg.Targets {
		m.targets = append(m.targets, &targetState{
			cfg:    t,
			series: make(map[string]*metrics.Series),
			consec: make(map[string]int),
		})
	}
	for _, name := range []string{fleetDelivered, fleetNAKs, fleetRetransmits, fleetFlowChurn} {
		m.fleetSeries[name] = metrics.NewSeries(cfg.History)
	}
	return m
}

// Start launches the scrape loop at the configured interval. Stop ends it.
func (m *Monitor) Start() {
	go func() {
		defer close(m.done)
		tick := time.NewTicker(m.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				m.ScrapeOnce()
			case <-m.stop:
				return
			}
		}
	}()
}

// Stop ends the scrape loop started by Start and waits for it to exit.
// Safe to call more than once, and without a prior Start the wait
// returns once the (never-started) loop's channel closes via stopOnce.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	select {
	case <-m.done:
	case <-time.After(time.Second):
	}
}

// ScrapeOnce runs one synchronous sweep: scrape every target, integrate
// the samples into the ring series, evaluate the watchdogs, and update
// the alert table. Start calls it on every tick; tests drive it directly
// for determinism.
func (m *Monitor) ScrapeOnce() {
	start := time.Now()
	type result struct {
		samples []metrics.Sample
		err     error
	}
	results := make([]result, len(m.targets))
	var wg sync.WaitGroup
	for i, t := range m.targets {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			samples, err := metrics.Scrape(url)
			results[i] = result{samples, err}
		}(i, t.cfg.URL)
	}
	wg.Wait()
	at := time.Now().UnixNano()

	var newAlerts []Alert
	m.mu.Lock()
	m.sweeps++
	for i, t := range m.targets {
		res := results[i]
		if res.err != nil {
			t.up = false
			t.err = res.err.Error()
			m.scrapeErrs++
			if c := m.scrapeErrC.Load(); c != nil {
				c.Inc()
			}
			// A dead target keeps its last samples but contributes no new
			// window: clear cur so watchdogs and sums skip it.
			t.prev, t.cur = nil, nil
			continue
		}
		t.up = true
		t.err = ""
		t.lastAt = at
		t.prev, t.cur = t.cur, res.samples
		// Restart detection: uptime going backwards means a new process;
		// cumulative baselines are void, so suspend the monotone check
		// for this window.
		if up, ok := metrics.SampleValue(res.samples, metrics.MetricProcUptime); ok {
			if up < t.uptime {
				t.restarts++
				t.prev = nil
			}
			t.uptime = up
		}
		for _, s := range res.samples {
			ser := t.series[s.Name]
			if ser == nil {
				ser = metrics.NewSeries(m.cfg.History)
				t.series[s.Name] = ser
			}
			ser.Append(at, s.Value)
		}
		newAlerts = append(newAlerts, m.watchTargetLocked(t, at)...)
	}
	m.appendFleetLocked(at)
	m.mu.Unlock()

	if c := m.scrapesC.Load(); c != nil {
		c.Inc()
	}
	if h := m.scrapeH.Load(); h != nil {
		h.ObserveDuration(time.Since(start))
	}
	if m.cfg.OnAlert != nil {
		for _, a := range newAlerts {
			m.cfg.OnAlert(a)
		}
	}
}

// findingKey identifies a finding across windows for debouncing and
// latching: per-metric checks key on the metric so two regressing
// counters alert independently.
func findingKey(target string, f oracles.Finding) string {
	metric := ""
	if f.Check == "monotone-counter" {
		// Detail leads with the metric name ("<name> went backwards: …").
		if i := strings.IndexByte(f.Detail, ' '); i > 0 {
			metric = f.Detail[:i]
		}
	}
	return target + "/" + f.Check + "/" + metric
}

// watchTargetLocked evaluates the watchdogs over the target's latest
// window and updates the alert table, returning any newly raised alerts.
func (m *Monitor) watchTargetLocked(t *targetState, at int64) []Alert {
	findings := oracles.Check(t.prev, t.cur)
	seen := make(map[string]bool, len(findings))
	var raised []Alert
	for _, f := range findings {
		key := findingKey(t.cfg.Name, f)
		seen[key] = true
		t.consec[key]++
		if t.consec[key] < confirmWindows {
			continue
		}
		a := m.alerts[key]
		if a == nil {
			metric := ""
			if i := strings.Index(key, "/monotone-counter/"); i >= 0 {
				metric = key[i+len("/monotone-counter/"):]
			}
			a = &Alert{
				UnixNano: at,
				Target:   t.cfg.Name,
				Check:    f.Check,
				Metric:   metric,
				Detail:   f.Detail,
				Count:    1,
				Active:   true,
			}
			m.alerts[key] = a
			m.alertLog = append(m.alertLog, a)
			m.raised++
			if c := m.raisedC.Load(); c != nil {
				c.Inc()
			}
			raised = append(raised, *a)
		} else {
			a.Count++
			a.Detail = f.Detail
			a.Active = true
		}
	}
	// Conditions that stopped holding: reset the debounce window and
	// deactivate the latched alert (it stays in the log).
	for key := range t.consec {
		if seen[key] {
			continue
		}
		delete(t.consec, key)
		if a := m.alerts[key]; a != nil {
			a.Active = false
		}
	}
	return raised
}

// sumLocked sums one metric's latest sample across up targets.
func (m *Monitor) sumLocked(name string) int64 {
	var total int64
	for _, t := range m.targets {
		if !t.up {
			continue
		}
		if v, ok := metrics.SampleValue(t.cur, name); ok {
			total += v
		}
	}
	return total
}

// appendFleetLocked records this sweep's fleet-level sums into the
// derived ring series the rates differentiate over.
func (m *Monitor) appendFleetLocked(at int64) {
	m.fleetSeries[fleetDelivered].Append(at, m.sumLocked(metrics.MetricRxDelivered))
	m.fleetSeries[fleetNAKs].Append(at, m.sumLocked(metrics.MetricRxNAKsSent))
	m.fleetSeries[fleetRetransmits].Append(at, m.sumLocked(metrics.MetricBufRetransmits))
	m.fleetSeries[fleetFlowChurn].Append(at,
		m.sumLocked(metrics.MetricRelayFlowsOpened)+m.sumLocked(metrics.MetricRelayFlowsExpired))
}

// Fleet returns the current aggregate snapshot.
func (m *Monitor) Fleet() Fleet {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := Fleet{UnixNano: time.Now().UnixNano()}
	for _, t := range m.targets {
		f.Targets = append(f.Targets, TargetHealth{
			Name:               t.cfg.Name,
			URL:                t.cfg.URL,
			Up:                 t.up,
			Err:                t.err,
			UptimeSec:          t.uptime,
			Restarts:           t.restarts,
			LastScrapeUnixNano: t.lastAt,
		})
	}
	rate := func(name string) float64 {
		r, _ := m.fleetSeries[name].Rate(rateSpan)
		return r
	}
	f.DeliveredPerSec = rate(fleetDelivered)
	f.NAKsPerSec = rate(fleetNAKs)
	f.RetransmitsPerSec = rate(fleetRetransmits)
	f.FlowChurnPerSec = rate(fleetFlowChurn)
	f.FlowsActive = m.sumLocked(metrics.MetricRelayFlowsActive)
	f.OutstandingGaps = m.sumLocked(metrics.MetricRxOutstandingGaps)
	f.JournalPending = m.sumLocked(metrics.MetricJournalPending)
	for _, a := range m.alerts {
		if a.Active {
			f.AlertsActive++
		}
	}
	return f
}

// Alerts returns every alert ever raised, in raise order (a copy).
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Alert, 0, len(m.alertLog))
	for _, a := range m.alertLog {
		out = append(out, *a)
	}
	return out
}

// SeriesNames lists every stored ring series, sorted: per-target metrics
// as "<target>/<metric>" and the derived fleet series as "fleet/<name>".
func (m *Monitor) SeriesNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name := range m.fleetSeries {
		out = append(out, "fleet/"+name)
	}
	for _, t := range m.targets {
		for name := range t.series {
			out = append(out, t.cfg.Name+"/"+name)
		}
	}
	sort.Strings(out)
	return out
}

// SeriesPoints returns up to n recent points (oldest first; n ≤ 0 means
// all) of the named series ("<target>/<metric>" or "fleet/<name>"); ok
// is false for an unknown name.
func (m *Monitor) SeriesPoints(name string, n int) ([]metrics.Point, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	target, metric, found := strings.Cut(name, "/")
	if !found {
		return nil, false
	}
	var ser *metrics.Series
	if target == "fleet" {
		ser = m.fleetSeries[metric]
	} else {
		for _, t := range m.targets {
			if t.cfg.Name == target {
				ser = t.series[metric]
				break
			}
		}
	}
	if ser == nil {
		return nil, false
	}
	return ser.Points(make([]metrics.Point, 0, ser.Len()), n), true
}

// RegisterMetrics publishes the monitor's self-metrics (mon.*) on reg —
// scrape sweep counters, target liveness, alert counts, and sweep
// latency — so the monitor daemon is as observable as the fleet it
// watches.
func (m *Monitor) RegisterMetrics(reg *metrics.Registry) {
	m.scrapesC.Store(reg.Counter(metrics.MetricMonScrapes))
	m.scrapeErrC.Store(reg.Counter(metrics.MetricMonScrapeErrors))
	m.raisedC.Store(reg.Counter(metrics.MetricMonAlertsRaised))
	m.scrapeH.Store(reg.Histogram(metrics.MetricMonScrapeNs))
	reg.RegisterFunc(metrics.MetricMonTargetsUp, func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		var up int64
		for _, t := range m.targets {
			if t.up {
				up++
			}
		}
		return up
	})
	reg.RegisterFunc(metrics.MetricMonAlertsActive, func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		var active int64
		for _, a := range m.alerts {
			if a.Active {
				active++
			}
		}
		return active
	})
}

// WriteWatch renders the one-screen terminal view: fleet rates, per-
// target status, and the active alerts. cmd/dmtp-mon clears the screen
// and calls this on every interval under -watch.
func (m *Monitor) WriteWatch(w io.Writer) {
	f := m.Fleet()
	fmt.Fprintf(w, "dmtp fleet  %s\n\n", time.Unix(0, f.UnixNano).Format("15:04:05"))
	fmt.Fprintf(w, "delivered %8.1f/s   naks %8.1f/s   retransmits %8.1f/s   flow churn %6.1f/s\n",
		f.DeliveredPerSec, f.NAKsPerSec, f.RetransmitsPerSec, f.FlowChurnPerSec)
	fmt.Fprintf(w, "flows %d   outstanding gaps %d   journal lag %d records   active alerts %d\n\n",
		f.FlowsActive, f.OutstandingGaps, f.JournalPending, f.AlertsActive)
	for _, t := range f.Targets {
		status := "up"
		if !t.Up {
			status = "DOWN " + t.Err
		}
		fmt.Fprintf(w, "%-12s %-22s uptime %6ds restarts %d  %s\n",
			t.Name, t.URL, t.UptimeSec, t.Restarts, status)
	}
	alerts := m.Alerts()
	if len(alerts) == 0 {
		fmt.Fprintf(w, "\nno invariant alerts\n")
		return
	}
	fmt.Fprintf(w, "\nalerts:\n")
	for _, a := range alerts {
		state := "cleared"
		if a.Active {
			state = "ACTIVE"
		}
		fmt.Fprintf(w, "  [%s] %s %s ×%d: %s\n", state, a.Target, a.Check, a.Count, a.Detail)
	}
}
