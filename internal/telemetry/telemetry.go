// Package telemetry provides the two measurement instruments the endpoints
// and the experiment harness share: Histogram, a log-bucketed histogram
// with quantile estimation, a plain single-threaded value (simulated
// components update it from event-loop callbacks, the live path guards it
// with its own locks); and CounterSet, named counters safe for concurrent
// use. Both stay here, rather than moving to their users, because the
// benchmark module (bench/) times and uses them by these names; they can
// move once the benchmark is re-baselined (ROADMAP item 6).
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram is a log-bucketed histogram of nanosecond durations (or any
// non-negative int64 quantity). Buckets grow geometrically by ~8.3%
// (36 sub-buckets per octave of 10), bounding quantile error to ~4%.
type Histogram struct {
	count uint64
	sum   float64
	minV  int64
	max   int64
	// counts[b+1] counts bucket b; counts[0] counts values ≤ 0.
	counts [numBuckets + 1]uint64
}

const bucketsPerDecade = 36

// numBuckets is the number of buckets of positive values: bucketFormula
// maps 1..math.MaxInt64 onto 0..682.
const numBuckets = 683

// bucketLow[b] is the smallest positive value bucketFormula puts in bucket
// b or above, and octaveBucket[n] the bucket of 2^(n-1), the smallest value
// of bit length n. Both are built from bucketFormula at init, so bucketOf
// agrees with it exactly.
var (
	bucketLow    [numBuckets]int64
	octaveBucket [64]int
)

func init() {
	lo := int64(1)
	for b := range bucketLow {
		// The formula does not decrease as v grows: bisect for its first
		// value at or above b, within a bracket around 10^(b/36) where the
		// formula confirms one (it keeps init to a fraction of a millisecond).
		hi := int64(math.MaxInt64)
		e := math.Pow(10, float64(b)/bucketsPerDecade)
		if l := int64(e * (1 - 1e-12)); l > lo && bucketFormula(l-1) < b {
			lo = l
		}
		if u := e * (1 + 1e-12); u < 9e18 && bucketFormula(int64(u)+1) >= b {
			hi = int64(u) + 1
		}
		for lo < hi {
			mid := lo + (hi-lo)/2
			if bucketFormula(mid) >= b {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		bucketLow[b] = lo
	}
	for n := 1; n < len(octaveBucket); n++ {
		octaveBucket[n] = bucketFormula(1 << (n - 1))
	}
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{minV: math.MaxInt64} }

// bucketFormula defines the buckets: v > 0 falls in ⌊36·log10 v⌋.
func bucketFormula(v int64) int {
	return int(math.Floor(math.Log10(float64(v)) * bucketsPerDecade))
}

// bucketOf is bucketFormula by table lookup, or -1 for v ≤ 0: the bit
// length of v names its octave's first bucket, and an octave spans at most
// eleven buckets.
func bucketOf(v int64) int {
	if v <= 0 {
		return -1
	}
	b := octaveBucket[bits.Len64(uint64(v))]
	for b+1 < numBuckets && bucketLow[b+1] <= v {
		b++
	}
	return b
}

func bucketMid(b int) int64 {
	if b < 0 {
		return 0
	}
	lo := math.Pow(10, float64(b)/bucketsPerDecade)
	hi := math.Pow(10, float64(b+1)/bucketsPerDecade)
	return int64((lo + hi) / 2)
}

// Observe records a value.
func (h *Histogram) Observe(v int64) {
	h.count++
	h.sum += float64(v)
	if v < h.minV {
		h.minV = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketOf(v)+1]++
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.minV
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an estimate of the q'th quantile (0 ≤ q ≤ 1), or 0 if
// the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			m := bucketMid(i - 1)
			if m < h.minV {
				m = h.minV
			}
			if m > h.max {
				m = h.max
			}
			return m
		}
	}
	return h.max
}

// String summarises the histogram as durations.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%v p50=%v p99=%v max=%v mean=%v",
		h.count,
		time.Duration(h.Min()),
		time.Duration(h.Quantile(0.5)),
		time.Duration(h.Quantile(0.99)),
		time.Duration(h.max),
		time.Duration(h.Mean()))
}
