package experiments

import (
	"repro/internal/campaign"
)

// C1Campaign runs one seeded campaign sweep (internal/campaign): every
// topology × fault × workload cell for `seeds` consecutive seeds, each on
// its own virtual clock, each judged by the invariant oracles. The
// returned matrix is the full benchtab/v1 document; C1Table condenses it
// to one row per fault class for the paper-table rendering.
func C1Campaign(seeds int, seed int64) *campaign.Matrix {
	return campaign.Run(campaign.Spec{Seed: seed, Seeds: seeds})
}

// C1Table renders a campaign matrix aggregated by fault class: cell
// counts, oracle outcomes, and the loss/recovery totals that show each
// fault plan actually bit.
func C1Table(m *campaign.Matrix) string {
	type agg struct {
		cells, ok  int
		violations int
		delivered  uint64
		recovered  uint64
		lost       uint64
		duplicates uint64
		crashes    uint64
	}
	byFault := map[string]*agg{}
	for _, r := range m.Results {
		a := byFault[r.Fault]
		if a == nil {
			a = &agg{}
			byFault[r.Fault] = a
		}
		a.cells++
		if r.Outcome == "ok" {
			a.ok++
		}
		a.violations += len(r.Violations)
		a.delivered += r.Delivered
		a.recovered += r.Recovered
		a.lost += r.Lost
		a.duplicates += r.Duplicates
		a.crashes += r.Crashes
	}
	t := NewTable("fault", "cells", "ok", "violations", "delivered", "recovered", "lost", "dups", "crashes")
	for _, f := range campaign.Faults {
		a := byFault[f]
		if a == nil {
			continue
		}
		t.Row(f, a.cells, a.ok, a.violations, a.delivered, a.recovered, a.lost, a.duplicates, a.crashes)
	}
	return t.String()
}
