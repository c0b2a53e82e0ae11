package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge %d, want 4", g.Value())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max %d", h.Max())
	}
	// Power-of-two buckets bound quantile error to a factor of 2.
	if p50 := h.Quantile(0.5); p50 < 250 || p50 > 1000 {
		t.Fatalf("p50 %d outside [250, 1000]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 495 || p99 > 1000 {
		t.Fatalf("p99 %d outside [495, 1000]", p99)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Fatal("quantiles not monotone at the extremes")
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should summarize to zeros")
	}
	h.Observe(-5) // clamped to 0
	if h.Quantile(0.99) != 0 {
		t.Fatalf("negative observation should clamp to 0, p99 %d", h.Quantile(0.99))
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same counter name must return the same instrument")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("same gauge name must return the same instrument")
	}
	if r.Histogram("c") != r.Histogram("c") {
		t.Fatal("same histogram name must return the same instrument")
	}
}

func TestRegistrySnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(3)
	r.Gauge("a.gauge").Set(-2)
	r.Histogram("m.hist").Observe(100)
	r.RegisterSet([]string{"f.fn"}, func(dst []int64) { dst[0] = 42 })

	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d samples, want 4", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	text := r.String()
	for _, want := range []string{"z.count 3\n", "a.gauge -2\n", "f.fn 42\n", "m.hist count=1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text output missing %q:\n%s", want, text)
		}
	}
}

func TestRegistryFuncGaugeMayUseRegistry(t *testing.T) {
	// Sets are sampled outside the registry lock, so a publisher callback
	// that itself touches the registry must not deadlock.
	r := NewRegistry()
	r.RegisterSet([]string{"self.referential"}, func(dst []int64) {
		dst[0] = int64(r.Counter("side.effect").Value())
	})
	done := make(chan struct{})
	go func() {
		r.Snapshot()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Snapshot deadlocked on a registry-using set")
	}
}

// TestRegistrySetSampledOncePerScrape: each scrape surface runs a set's
// sample exactly once, and every name of the set reads from that one call.
// A later set takes over a name it shares with an earlier one; an earlier
// set left publishing nothing is not sampled at all.
func TestRegistrySetSampledOncePerScrape(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.RegisterSet([]string{"s.a", "s.b"}, func(dst []int64) {
		calls++
		dst[0], dst[1] = int64(calls), int64(calls)
	})
	var b strings.Builder
	for i, scrape := range []func(){
		func() { r.Snapshot() },
		func() { r.WriteText(&b) },
		func() { r.WriteProm(&b) },
	} {
		scrape()
		if calls != i+1 {
			t.Fatalf("scrape surface %d: %d sample calls in all, want %d", i, calls, i+1)
		}
	}
	snap := r.Snapshot()
	if a, _ := SampleValue(snap, "s.a"); a != 4 || snap[1].Value != 4 {
		t.Fatalf("s.a, s.b = %d, %d from the fourth scrape, want 4, 4", a, snap[1].Value)
	}

	r.RegisterSet([]string{"s.b"}, func(dst []int64) { dst[0] = -1 })
	if b, _ := SampleValue(r.Snapshot(), "s.b"); b != -1 {
		t.Fatalf("s.b = %d, want -1 from the set that took it over", b)
	}
	r.RegisterSet([]string{"s.a"}, func(dst []int64) { dst[0] = -2 })
	before := calls
	snap = r.Snapshot()
	if calls != before || len(snap) != 2 || snap[0].Value != -2 || snap[1].Value != -1 {
		t.Fatalf("after both names were taken over: %d calls of the first set, snapshot %+v", calls-before, snap)
	}
	if got := r.Names(); len(got) != 2 {
		t.Fatalf("Names %v, want s.a and s.b once each", got)
	}
}

func TestDiff(t *testing.T) {
	before := []Sample{
		{Name: "a", Kind: KindCounter, Value: 10},
		{Name: "b", Kind: KindGauge, Value: 5},
		{Name: "gone", Kind: KindCounter, Value: 1},
	}
	after := []Sample{
		{Name: "a", Kind: KindCounter, Value: 15},
		{Name: "b", Kind: KindGauge, Value: 5},
		{Name: "new", Kind: KindCounter, Value: 2},
	}
	d := Diff(before, after)
	if len(d) != 2 {
		t.Fatalf("diff has %d entries, want 2: %+v", len(d), d)
	}
	if d[0].Name != "a" || d[0].Value != 5 {
		t.Fatalf("diff[0] = %+v, want a +5", d[0])
	}
	if d[1].Name != "new" || d[1].Value != 2 {
		t.Fatalf("diff[1] = %+v, want new +2", d[1])
	}
}

// TestRegistryConcurrentTorture hammers one registry from many goroutines —
// creating instruments, updating them, and snapshotting concurrently. Run
// with -race this is the registry's data-race test.
func TestRegistryConcurrentTorture(t *testing.T) {
	r := NewRegistry()
	names := []string{"t.a", "t.b", "t.c", "t.d"}
	var writers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 3000; i++ {
				n := names[(i+g)%len(names)]
				r.Counter(n).Inc()
				r.Gauge(n + ".g").Set(int64(i))
				r.Histogram(n + ".h").Observe(int64(i % 1024))
			}
		}(g)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
				r.Names()
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	var total uint64
	for _, n := range names {
		total += r.Counter(n).Value()
	}
	if total != 8*3000 {
		t.Fatalf("lost increments: %d, want %d", total, 8*3000)
	}
}
