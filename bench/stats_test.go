package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from Python 3.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4, 4}, [3]float64{2.375, 4, 6.5}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{300, 310, 2900, 305, 5000}, 310}, // two disturbed rounds do not move it
	} {
		if got := median(c.v); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	v := []float64{3, 1, 2}
	median(v)
	if v[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

func TestSpreadFrac(t *testing.T) {
	if got := spreadFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadFrac = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spreadFrac([]float64{5}); got != 0 {
		t.Errorf("spreadFrac of one value = %v, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {1, 100}, {0.01, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}
