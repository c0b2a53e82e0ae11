package experiments

import (
	"time"

	"repro/internal/pilot"
)

// E4Row is one pilot-study configuration and its outcome.
type E4Row struct {
	Label   string
	Results pilot.Results
}

// E4Pilot reproduces the §5.4 pilot study across its operating points:
// the clean 100 GbE run, the lossy-WAN run exercising NAK recovery from
// DTN 1, the age-budget run exercising in-network age marking, and the
// supernova-burst run mixing a second instrument slice into the stream.
func E4Pilot(messages int, seed int64) []E4Row {
	configs := []struct {
		label string
		cfg   pilot.Config
	}{
		{"clean 100GbE", pilot.Config{Seed: seed, Messages: uint64(messages)}},
		{"lossy WAN (1e-3)", pilot.Config{Seed: seed, Messages: uint64(messages), WANLoss: 1e-3}},
		{"tight age budget", pilot.Config{Seed: seed, Messages: uint64(messages), MaxAge: 5 * time.Millisecond}},
		{"supernova burst", pilot.Config{Seed: seed, Messages: uint64(messages), Supernova: true, WANLoss: 1e-4}},
		{"encrypted", pilot.Config{Seed: seed, Messages: uint64(messages), Encrypt: true, WANLoss: 1e-4}},
	}
	rows := make([]E4Row, 0, len(configs))
	for _, c := range configs {
		res, err := pilot.Run(c.cfg)
		if err != nil {
			panic(err) // static configs; cannot fail
		}
		rows = append(rows, E4Row{Label: c.label, Results: res})
	}
	return rows
}

// E4Table renders the pilot matrix.
func E4Table(rows []E4Row) string {
	t := NewTable("run", "sent", "delivered", "recovered", "lost", "aged", "util", "lat p50", "rec p50")
	for _, r := range rows {
		res := r.Results
		t.Row(r.Label, res.Sent, res.Distinct, res.Recovered, res.Lost, res.Aged,
			res.LinkUtilization, fmtDur(res.LatencyP50), fmtDur(res.RecoveryP50))
	}
	return t.String()
}
