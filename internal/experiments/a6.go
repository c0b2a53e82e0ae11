package experiments

import (
	"repro/internal/pilot"
)

// A6Row is one buffer-capacity operating point.
type A6Row struct {
	CapacityBytes int
	Recovered     uint64
	Lost          uint64
	NAKMisses     bool // whether any NAK found its packet already evicted
	BufferPeak    int
}

// A6BufferSizing sweeps the DTN retransmission-buffer capacity at full
// pilot rate under loss, exposing the sizing law the soak test uncovered:
// the buffer must hold at least rate × recovery-RTT of traffic (≈300 MB at
// 80 Gbps offered and a ~30 ms NAK round trip). Undersized buffers evict
// exactly the packets receivers are mid-recovery on — oldest-first
// eviction and in-flight recovery chase the same packets — turning
// transient WAN loss into permanent data loss. The paper's Alveo-backed
// DTN must be provisioned accordingly.
func A6BufferSizing(capacities []int, messages int, seed int64) []A6Row {
	if len(capacities) == 0 {
		capacities = []int{64 << 20, 128 << 20, 256 << 20, 512 << 20}
	}
	rows := make([]A6Row, 0, len(capacities))
	for _, c := range capacities {
		res, err := pilot.Run(pilot.Config{
			Seed:          seed,
			Messages:      uint64(messages),
			WANLoss:       2e-3,
			CapacityBytes: c,
		})
		if err != nil {
			panic(err) // static config; cannot fail
		}
		rows = append(rows, A6Row{
			CapacityBytes: c,
			Recovered:     res.Recovered,
			Lost:          res.Lost,
			NAKMisses:     res.Lost > 0,
			BufferPeak:    res.BufferPeak,
		})
	}
	return rows
}

// A6Table renders the sizing sweep.
func A6Table(rows []A6Row) string {
	t := NewTable("buffer capacity", "recovered", "lost", "peak occupancy")
	for _, r := range rows {
		t.Row(fmtBytes(r.CapacityBytes), r.Recovered, r.Lost, fmtBytes(r.BufferPeak))
	}
	return t.String()
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<30:
		return trimF(float64(b)/(1<<30)) + " GiB"
	case b >= 1<<20:
		return trimF(float64(b)/(1<<20)) + " MiB"
	case b >= 1<<10:
		return trimF(float64(b)/(1<<10)) + " KiB"
	}
	return trimF(float64(b)) + " B"
}
