package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile")
	}
	for _, v := range []int64{10, 20, 30} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Min() != 10 || h.Max() != 30 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-20) > 1e-9 {
		t.Fatalf("mean %v", h.Mean())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	r := rand.New(rand.NewSource(3))
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(r.ExpFloat64() * 1e6) // exponential, mean 1 ms
		if v < 1 {
			v = 1
		}
		vals = append(vals, v)
		h.Observe(v)
	}
	exact := func(q float64) int64 {
		sorted := append([]int64(nil), vals...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		idx := int(q*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.Quantile(q), exact(q)
		rel := math.Abs(float64(got-want)) / float64(want)
		if rel > 0.10 {
			t.Fatalf("q%.2f: got %d want %d (rel err %.3f)", q, got, want, rel)
		}
	}
}

func TestHistogramQuantileMonotoneQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(int64(v % 1e9))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			if cur < h.Min() || cur > h.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramZeroAndClamp(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(0)
	if h.Quantile(0.5) != 0 {
		t.Fatalf("all-zero histogram p50 = %d", h.Quantile(0.5))
	}
	if h.Quantile(-1) != 0 || h.Quantile(2) != 0 {
		t.Fatal("out-of-range q must clamp")
	}
}

// refBucket is the formula that defines the buckets, kept here as the
// reference the lookup tables must reproduce.
func refBucket(v int64) int {
	if v <= 0 {
		return -1
	}
	return int(math.Floor(math.Log10(float64(v)) * bucketsPerDecade))
}

// TestBucketOfMatchesFormula pins the table lookup to the formula at every
// bucket boundary ±1, on 2 M random values of every magnitude, and on every
// value up to 200 000.
func TestBucketOfMatchesFormula(t *testing.T) {
	check := func(v int64) {
		if got, want := bucketOf(v), refBucket(v); got != want {
			t.Fatalf("bucketOf(%d) = %d, the formula says %d", v, got, want)
		}
	}
	if refBucket(math.MaxInt64) != numBuckets-1 {
		t.Fatalf("the formula's last bucket is %d, the table has %d", refBucket(math.MaxInt64), numBuckets)
	}
	for b, low := range bucketLow {
		if low > 1 && refBucket(low-1) >= b || refBucket(low) < b {
			t.Fatalf("bucket %d starts at %d, not where the formula reaches it", b, low)
		}
		for _, v := range []int64{low - 1, low, low + 1} {
			if v < math.MaxInt64 {
				check(v)
			}
		}
	}
	check(math.MaxInt64)
	check(math.MinInt64)
	for v := int64(-2); v <= 200_000; v++ {
		check(v)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2_000_000; i++ {
		check(rng.Int63() >> rng.Intn(63))
	}
}

// TestHistogramQuantileMatchesSortedBuckets checks Quantile's array walk
// against the sorted walk over a bucket map that it replaced.
func TestHistogramQuantileMatchesSortedBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := NewHistogram()
	ref := map[int]uint64{}
	for i := 0; i < 50_000; i++ {
		v := rng.Int63()>>rng.Intn(63) - 3
		h.Observe(v)
		ref[refBucket(v)]++
	}
	keys := make([]int, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, q := range []float64{0, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		target := max(uint64(math.Ceil(q*float64(h.Count()))), 1)
		var cum uint64
		want := h.Max()
		for _, k := range keys {
			if cum += ref[k]; cum >= target {
				want = min(max(bucketMid(k), h.Min()), h.Max())
				break
			}
		}
		if got := h.Quantile(q); got != want {
			t.Fatalf("q%v = %d, the sorted walk gives %d", q, got, want)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	vals := make([]int64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = int64(100_000 + rng.Intn(900_000)) // 0.1–1 ms, the receiver's latency range
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i&1023])
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	if h.String() != "n=0" {
		t.Fatalf("empty string %q", h.String())
	}
	h.ObserveDuration(time.Millisecond)
	if !strings.Contains(h.String(), "n=1") {
		t.Fatalf("string %q", h.String())
	}
}
