// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index):
//
//	E1 — Table 1: the DAQ-rate catalog, validated against the generators.
//	E2 — Fig. 2: today's transport chain (UDP + split tuned TCP), measured.
//	E3 — Fig. 3: the multi-modal goal scenario vs the TCP chain — loss
//	     sweep, in-network alert duplication, back-pressure.
//	E4 — Fig. 4 / §5.4: the pilot study.
//	A1–A4 — ablations: buffer placement, head-of-line blocking, wire
//	     overhead (bench-only), and capacity-planned coexistence.
//
// Each experiment is a pure function of its config (seeded, deterministic)
// returning a result struct with a Table() renderer, shared by
// cmd/benchtab and the root bench_test.go.
package experiments

import (
	"strconv"
	"time"

	"repro/internal/daq"
)

// E1Row is one row of the reproduced Table 1.
type E1Row struct {
	Name         string
	Kind         string
	PaperRateBps float64
	Scale        float64
	TargetBps    float64
	MeasuredBps  float64
	Messages     int
}

// E1Table1 reproduces Table 1: for every experiment in the catalog it
// instantiates the workload generator at 1/scale of the paper rate and
// measures the generated rate, validating that the synthesised streams
// carry the published shape.
func E1Table1(scale float64, messages int, seed int64) []E1Row {
	var rows []E1Row
	for _, e := range daq.Catalog() {
		src := e.Stream(scale, uint64(messages), seed)
		rate, n := daq.MeasuredRate(src, messages)
		rows = append(rows, E1Row{
			Name:         e.Name,
			Kind:         e.Kind,
			PaperRateBps: e.DAQRateBps,
			Scale:        scale,
			TargetBps:    e.ScaledRate(scale),
			MeasuredBps:  rate,
			Messages:     n,
		})
	}
	return rows
}

// E1TableString renders the rows as a paper-style table.
func E1TableString(rows []E1Row) string {
	t := NewTable("experiment", "paper DAQ rate", "scale", "target", "measured", "ratio")
	for _, r := range rows {
		t.Row(r.Name, fmtRate(r.PaperRateBps), r.Scale, fmtRate(r.TargetBps), fmtRate(r.MeasuredBps), r.MeasuredBps/r.TargetBps)
	}
	return t.String()
}

func fmtRate(bps float64) string {
	switch {
	case bps >= 1e12:
		return trimF(bps/1e12) + " Tbps"
	case bps >= 1e9:
		return trimF(bps/1e9) + " Gbps"
	case bps >= 1e6:
		return trimF(bps/1e6) + " Mbps"
	}
	return trimF(bps) + " bps"
}

func trimF(v float64) string { return strconv.FormatFloat(v, 'g', 3, 64) }

// fmtDur rounds a duration for table display.
func fmtDur(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
