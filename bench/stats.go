package main

import (
	"math"
	"slices"
)

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) does, so
// -agree judges spreads with the same arithmetic as whoever re-checks the
// benchmark with that function. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4 // outside 0..4 once j is clamped: it extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of v (mean of the middle two when even),
// zero when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if m := len(s); m%2 == 1 {
		return s[m/2]
	} else {
		return (s[m/2-1] + s[m/2]) / 2
	}
}

// spreadFrac is the interquartile range of v as a share of its median —
// the repeatability figure the bounds are judged against. Zero when v has
// fewer than two values or a zero median.
func spreadFrac(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending slice, zero when it is empty.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
