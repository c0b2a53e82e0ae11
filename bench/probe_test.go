package main

import (
	"math"
	"testing"
	"time"
)

func TestSpeedFactor(t *testing.T) {
	for _, tc := range []struct{ probeUs, want float64 }{
		{probeRefUs, 1},
		{4 * probeRefUs, math.Pow(4, speedElasticity)},
		{probeRefUs / 4, math.Pow(4, -speedElasticity)},
		{0, 1}, // no samples: nothing to correct by
	} {
		if got := speedFactor(tc.probeUs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("speedFactor(%v) = %v, want %v", tc.probeUs, got, tc.want)
		}
	}
}

// The probe samples on its own, take starts a new interval, and close can
// be called twice (once before the paced phase, once deferred).
func TestSpeedProbe(t *testing.T) {
	p, err := startSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	time.Sleep(5 * probePeriod)
	us, busy := p.take()
	if us <= 0 || busy <= 0 {
		t.Errorf("after five periods: median %v us, busy %v", us, busy)
	}
	p.close()
	p.take() // whatever it sampled since the take above
	if us, busy := p.take(); us != 0 || busy != 0 {
		t.Errorf("a closed probe still samples: %v us, busy %v", us, busy)
	}
}
