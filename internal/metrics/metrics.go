// Package metrics is the runtime-observability layer shared by both DMTP
// substrates: a concurrent registry of named instruments cheap enough to
// live on the datapath, plus a flight recorder (flight.go) — a fixed-size
// lock-free ring of recent protocol events, recorded by both substrates'
// engines and dumped by /events and the crash black boxes.
//
// A Registry publishes values two ways:
//
//   - Counter / Gauge / Histogram: atomic instruments updated in place.
//     Updating any of them performs no allocation and takes no lock, so
//     the zero-allocation steady state survives instrumentation (guarded
//     by AllocsPerRun tests in alloc_test.go). They carry distributions —
//     packets per syscall, fsync and trace latencies — and the debug
//     endpoint's and fleet monitor's own counts.
//   - Sampled sets (RegisterSet): one per publisher — a relay, a receiver,
//     a sender, a journal. The registry calls a set's sample once per
//     Snapshot, WriteText or WriteProm, and the publisher reads its own
//     stats struct under one hold of its own lock, so every value of one
//     scrape comes from one instant and a law across two of them can be
//     checked on it. Each event is counted once, in its engine's stats;
//     the datapath pays nothing until somebody scrapes.
//
// Both substrates register through internal/dmtp, so a simulator
// receiver and a live UDP receiver export the same metric names — the
// catalogue in names.go, documented for operators in OBSERVABILITY.md (a
// test diffs the two).
//
// A Registry renders as text (one metric per line, sorted) or JSON, and
// two snapshots diff into the per-experiment metric deltas cmd/benchtab
// emits.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; Inc/Add are lock- and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic value that may go up or down. The zero
// value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is one bucket per power of two of the observed value, which
// bounds quantile error to a factor of 2 — coarse, but updatable with two
// atomic adds and no lock. Bucket i holds values v with bits.Len64(v) == i;
// bucket 0 holds zero and negative values.
const histBuckets = 65

// Histogram is a lock-cheap histogram of non-negative int64 observations
// (typically nanosecond durations): power-of-two buckets updated atomically,
// so concurrent writers never contend on anything wider than one cache line
// of the bucket array. The zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / int64(n)
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile estimates the q'th quantile (0 ≤ q ≤ 1) from the power-of-two
// buckets; the estimate is the geometric midpoint of the bucket holding the
// target rank, so it is within 2× of the true value.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == 0 {
				return 0
			}
			// Geometric midpoint of [2^(i-1), 2^i).
			mid := int64(3) << uint(i-2)
			if i == 1 {
				mid = 1
			}
			if m := h.max.Load(); mid > m {
				mid = m
			}
			return mid
		}
	}
	return h.max.Load()
}

// Kind names a sample's instrument family in snapshots.
type Kind string

// The sample kinds a Registry snapshot distinguishes.
const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
	KindHist    Kind = "hist"
)

// Sample is one metric's value at snapshot time. Histograms carry their
// summary statistics inline; counters and gauges use Value only.
type Sample struct {
	Name  string `json:"name"`
	Kind  Kind   `json:"kind"`
	Value int64  `json:"value"` // counter/gauge value; histogram count
	// Histogram summaries (nanoseconds for duration histograms).
	Mean int64 `json:"mean,omitempty"`
	P50  int64 `json:"p50,omitempty"`
	P99  int64 `json:"p99,omitempty"`
	Max  int64 `json:"max,omitempty"`
}

// Registry is a concurrent name → instrument table. Counter/Gauge/Histogram
// return a live instrument (get-or-create, so two components naming the
// same metric share one instrument); RegisterSet installs a publisher's
// sampled values. All methods are safe for concurrent use; instrument
// updates themselves never touch the registry lock.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// sampled maps each name a sampled set publishes to that set and the
	// name's index in it; a later set takes a name over from an earlier one.
	sampled map[string]setSlot
}

// sampleSet is one publisher's sampled values: sample fills dst, n long,
// one value per name, in the order the names were registered.
type sampleSet struct {
	n      int
	sample func(dst []int64)
}

// setSlot is where a sampled name's value lands in its set's dst.
type setSlot struct {
	set *sampleSet
	i   int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		sampled:  make(map[string]setSlot),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterSet installs a set of sampled gauges, one per name: sample is
// invoked once per Snapshot, WriteText or WriteProm, outside the registry
// lock, and fills dst (len(names) long) with the value of names[i] in
// dst[i]. Every value of the set therefore comes from one call, so a
// publisher that reads them under one hold of its own lock exports values
// of one instant. A name already registered by an earlier set now comes
// from this one. sample must be safe to call from any goroutine.
func (r *Registry) RegisterSet(names []string, sample func(dst []int64)) {
	s := &sampleSet{n: len(names), sample: sample}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range names {
		r.sampled[n] = setSlot{s, i}
	}
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.sampled))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	for n := range r.sampled {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// reading is one metric as a scrape read it: a value for counters, gauges
// and sampled sets; the live instrument for histograms, whose renderings
// differ between Snapshot and WriteProm.
type reading struct {
	name  string
	kind  Kind
	value int64
	h     *Histogram
	slot  setSlot
}

// read is the one scrape path behind Snapshot, WriteText and WriteProm: it
// collects the instruments and sets under the read lock, then runs each
// set's sample once, outside it — a sample may take its publisher's locks,
// and a publisher might be mid-update while also creating a metric on this
// registry. The readings come back sorted by name.
func (r *Registry) read() []reading {
	r.mu.RLock()
	out := make([]reading, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.sampled))
	for n, c := range r.counters {
		out = append(out, reading{name: n, kind: KindCounter, value: int64(c.Value())})
	}
	for n, g := range r.gauges {
		out = append(out, reading{name: n, kind: KindGauge, value: g.Value()})
	}
	for n, h := range r.hists {
		out = append(out, reading{name: n, kind: KindHist, h: h})
	}
	for n, sl := range r.sampled {
		out = append(out, reading{name: n, kind: KindGauge, slot: sl})
	}
	r.mu.RUnlock()
	vals := make(map[*sampleSet][]int64)
	for i, m := range out {
		if m.slot.set == nil {
			continue
		}
		dst, ok := vals[m.slot.set]
		if !ok {
			dst = make([]int64, m.slot.set.n)
			m.slot.set.sample(dst)
			vals[m.slot.set] = dst
		}
		out[i].value = dst[m.slot.i]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot samples every instrument (running each set once) and returns
// the samples sorted by name.
func (r *Registry) Snapshot() []Sample {
	rs := r.read()
	out := make([]Sample, len(rs))
	for i, m := range rs {
		out[i] = Sample{Name: m.name, Kind: m.kind, Value: m.value}
		if h := m.h; h != nil {
			out[i].Value = int64(h.Count())
			out[i].Mean, out[i].P50, out[i].P99, out[i].Max = h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max()
		}
	}
	return out
}

// WriteText renders the snapshot one metric per line, sorted by name:
// "name value" for counters and gauges, and
// "name count=N mean=M p50=A p99=B max=C" for histograms.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		var err error
		if s.Kind == KindHist {
			_, err = fmt.Fprintf(w, "%s count=%d mean=%d p50=%d p99=%d max=%d\n",
				s.Name, s.Value, s.Mean, s.P50, s.P99, s.Max)
		} else {
			_, err = fmt.Fprintf(w, "%s %d\n", s.Name, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as an indented JSON array of Samples.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// String renders the registry as its text form.
func (r *Registry) String() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// Diff returns after−before for every metric that changed (or that is new
// in after), sorted by name. Histograms diff on their observation count;
// the summary statistics carried are after's. Metrics present only in
// before are dropped — a registry never unregisters, so that means the
// caller is comparing snapshots from different registries.
func Diff(before, after []Sample) []Sample {
	prev := make(map[string]Sample, len(before))
	for _, s := range before {
		prev[s.Name] = s
	}
	var out []Sample
	for _, s := range after {
		if d := s.Value - prev[s.Name].Value; d != 0 {
			s.Value = d
			out = append(out, s)
		}
	}
	return out
}
