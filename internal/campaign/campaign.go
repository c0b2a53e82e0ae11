// Package campaign is the deterministic scenario-sweep harness: it
// enumerates the cross product of seeds × topologies × fault plans ×
// workloads, executes every cell on the simulator substrate (each cell
// owns a private netsim.Network, so cells run in parallel with fully
// isolated virtual clocks), and checks every run against a library of
// invariant oracles (internal/campaign/oracle.go). A sampled subset of
// cells additionally replays a scripted differential scenario on the live
// UDP substrate via internal/conformance.
//
// The sweep is a pure function of its Spec: the fault schedules come from
// internal/faults (seeded), the workloads are scheduled on the virtual
// timeline, and no cell reads the wall clock — so the marshalled result
// matrix is byte-identical across runs and machines for the same Spec,
// and any failing cell is reproducible from its ID alone
// (cmd/campaign -repro <cell-id>).
package campaign

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Dimension values, in enumeration order. Tokens are hyphen-free because
// cell IDs join them with hyphens.
var (
	// Topologies: single relay (sensor→DTN→receiver), chained relays
	// (sensor→DTN1→DTN2→receiver with transit stashing at DTN2), the
	// pilot's P4-switch path (sensor→DTN→Tofino2→receiver), the
	// many-flow fan-in (the workload's senders plus three extra steady
	// flows, all through one sharded relay), and the durable relay
	// (single shape, stash write-ahead journal enabled: crash cells must
	// replay the stash on restart and lose nothing).
	Topologies = []string{"single", "chain", "p4sim", "fanin", "durable"}
	// Faults: the fault-plan library of cell.go, from no-fault control to
	// the combined chaos plan.
	Faults = []string{"clean", "gilbert", "reorder", "dup", "corrupt", "flap", "crash", "chaos"}
	// Workloads: steady elephant flow (ordered delivery), supernova burst
	// mid-beam-run, and a mixed-config reshape storm (three senders, one
	// of them in a pass-through mode the relay does not upgrade).
	Workloads = []string{"steady", "burst", "storm"}
)

// Spec parameterises one campaign.
type Spec struct {
	// Seed is the first campaign seed; Seeds consecutive seeds are swept.
	Seed int64
	// Seeds is how many consecutive seeds to enumerate; zero means 1.
	Seeds int
	// Messages is the steady workload's message count per cell; zero
	// means 40. Burst and storm derive their extra traffic from it.
	Messages int
	// Workers bounds cell parallelism; zero means GOMAXPROCS.
	Workers int
	// LiveEvery, when positive, replays every LiveEvery'th cell (by
	// enumeration index) as a scripted differential scenario on the live
	// UDP substrate and records the transcript diff. Zero disables live
	// replay.
	LiveEvery int
	// Topologies/Faults/Workloads filter the swept dimension values; nil
	// means all.
	Topologies, Faults, Workloads []string
}

func (s Spec) withDefaults() Spec {
	if s.Seeds == 0 {
		s.Seeds = 1
	}
	if s.Messages == 0 {
		s.Messages = 40
	}
	if s.Workers == 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.Topologies == nil {
		s.Topologies = Topologies
	}
	if s.Faults == nil {
		s.Faults = Faults
	}
	if s.Workloads == nil {
		s.Workloads = Workloads
	}
	return s
}

// Cell identifies one scenario: a point in the seed × topology × fault ×
// workload cross product.
type Cell struct {
	Seed     int64
	Topology string
	Fault    string
	Workload string
}

// ID renders the cell's stable identifier, e.g. "s3-chain-flap-burst".
func (c Cell) ID() string {
	return fmt.Sprintf("s%d-%s-%s-%s", c.Seed, c.Topology, c.Fault, c.Workload)
}

// ParseCellID inverts Cell.ID and validates every token against the known
// dimension values.
func ParseCellID(id string) (Cell, error) {
	parts := strings.Split(id, "-")
	if len(parts) != 4 || !strings.HasPrefix(parts[0], "s") {
		return Cell{}, fmt.Errorf("campaign: malformed cell ID %q (want s<seed>-<topology>-<fault>-<workload>)", id)
	}
	seed, err := strconv.ParseInt(parts[0][1:], 10, 64)
	if err != nil {
		return Cell{}, fmt.Errorf("campaign: bad seed in cell ID %q: %v", id, err)
	}
	c := Cell{Seed: seed, Topology: parts[1], Fault: parts[2], Workload: parts[3]}
	if !contains(Topologies, c.Topology) {
		return Cell{}, fmt.Errorf("campaign: unknown topology %q (valid: %s)", c.Topology, strings.Join(Topologies, ", "))
	}
	if !contains(Faults, c.Fault) {
		return Cell{}, fmt.Errorf("campaign: unknown fault %q (valid: %s)", c.Fault, strings.Join(Faults, ", "))
	}
	if !contains(Workloads, c.Workload) {
		return Cell{}, fmt.Errorf("campaign: unknown workload %q (valid: %s)", c.Workload, strings.Join(Workloads, ", "))
	}
	return c, nil
}

func contains(vals []string, v string) bool {
	for _, x := range vals {
		if x == v {
			return true
		}
	}
	return false
}

// Enumerate lists the campaign's cells in deterministic order: seed-major,
// then topology, fault, workload in the declared dimension order.
func Enumerate(spec Spec) []Cell {
	spec = spec.withDefaults()
	var cells []Cell
	for s := 0; s < spec.Seeds; s++ {
		for _, topo := range spec.Topologies {
			for _, fault := range spec.Faults {
				for _, wl := range spec.Workloads {
					cells = append(cells, Cell{
						Seed:     spec.Seed + int64(s),
						Topology: topo,
						Fault:    fault,
						Workload: wl,
					})
				}
			}
		}
	}
	return cells
}

// LiveResult is the outcome of a cell's scripted live-substrate replay.
type LiveResult struct {
	// Ok reports an empty transcript diff between the simulator and live
	// runs of the derived scenario, and no transcript-oracle finding.
	Ok bool `json:"ok"`
	// Diffs lists every transcript divergence (conformance.Diff output),
	// then each side's transcript-oracle findings (conformance.Check
	// output, prefixed "sim: " or "live: ").
	Diffs []string `json:"diffs,omitempty"`
	// Err is a substrate failure (socket error, quiescence timeout) —
	// distinct from a divergence.
	Err string `json:"err,omitempty"`
}

// CellResult is one cell's outcome and measurements — one matrix entry.
// All fields are either integers or pure functions of virtual time, so
// the marshalled form is byte-identical across identical runs.
type CellResult struct {
	ID       string `json:"id"`
	Seed     int64  `json:"seed"`
	Topology string `json:"topology"`
	Fault    string `json:"fault"`
	Workload string `json:"workload"`

	// Outcome is "ok" or "violation"; Violations lists every oracle
	// finding when it is not "ok".
	Outcome    string   `json:"outcome"`
	Violations []string `json:"violations,omitempty"`

	Sent        uint64 `json:"sent"`
	Upgraded    uint64 `json:"upgraded"`
	Delivered   uint64 `json:"delivered"`
	Duplicates  uint64 `json:"duplicates"`
	Recovered   uint64 `json:"recovered"`
	Lost        uint64 `json:"lost"`
	Rejected    uint64 `json:"rejected"`
	NAKsSent    uint64 `json:"naksSent"`
	Retransmits uint64 `json:"retransmits"`
	Misses      uint64 `json:"misses"`
	Evicted     uint64 `json:"evicted"`
	Trimmed     uint64 `json:"trimmed"`
	Crashes     uint64 `json:"crashes"`
	// Replayed is stash entries rebuilt from the write-ahead journal on
	// restart — nonzero only on the durable topology's crash cells. It is
	// a pure function of the virtual timeline (which appends, tombstones
	// and trims preceded the crash), so it keeps the matrix deterministic.
	Replayed uint64 `json:"replayed"`

	// TailLoss is sequences assigned upstream but never observed (neither
	// delivered nor written off) at the receiver: tail drops nothing
	// later arrived to reveal. Negative would mean the receiver observed
	// sequences never assigned (the corrupt fault can fabricate these).
	TailLoss int64 `json:"tailLoss"`

	// GoodputMbps is delivered payload throughput over the virtual
	// delivery span.
	GoodputMbps float64 `json:"goodputMbps"`
	// OWDP50Ns/OWDP99Ns are origin→delivery latency percentiles;
	// RecoveryP50Ns/RecoveryP99Ns are gap-detection→recovery percentiles.
	OWDP50Ns      int64 `json:"owdP50Ns"`
	OWDP99Ns      int64 `json:"owdP99Ns"`
	RecoveryP50Ns int64 `json:"recoveryP50Ns"`
	RecoveryP99Ns int64 `json:"recoveryP99Ns"`
	// ElapsedVirtualNs is the cell's total virtual runtime.
	ElapsedVirtualNs int64 `json:"elapsedVirtualNs"`

	// Live is the scripted live-substrate replay outcome for sampled
	// cells; nil for cells that only ran on the simulator.
	Live *LiveResult `json:"live,omitempty"`
}

// Matrix is the campaign's marshalled output (schema benchtab/v1, like
// cmd/benchtab's documents). Byte-identical for identical Specs.
type Matrix struct {
	Schema     string       `json:"schema"`
	Kind       string       `json:"kind"`
	Seed       int64        `json:"seed"`
	Seeds      int          `json:"seeds"`
	Messages   int          `json:"messages"`
	Cells      int          `json:"cells"`
	Violations int          `json:"violations"`
	Results    []CellResult `json:"results"`
}

// MarshalIndent renders the matrix as the canonical campaign artifact.
func (m *Matrix) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// Run executes the campaign: every cell in Enumerate order, spread over
// spec.Workers goroutines. Results land at their enumeration index, so
// the matrix layout is independent of worker count and scheduling.
func Run(spec Spec) *Matrix {
	spec = spec.withDefaults()
	cells := Enumerate(spec)
	results := make([]CellResult, len(cells))

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < spec.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = runCell(cells[i], spec)
				if spec.LiveEvery > 0 && i%spec.LiveEvery == 0 {
					lr := runLiveReplay(cells[i])
					results[i].Live = &lr
				}
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()

	m := &Matrix{
		Schema:   "benchtab/v1",
		Kind:     "campaign-matrix",
		Seed:     spec.Seed,
		Seeds:    spec.Seeds,
		Messages: spec.Messages,
		Cells:    len(cells),
		Results:  results,
	}
	for i := range results {
		if results[i].Outcome != "ok" {
			m.Violations++
		}
	}
	return m
}
