package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Shared recovery-side counter names, recorded by the transport endpoints
// (internal/live, internal/core) into the same CounterSet a fault plan
// (internal/faults) records its inject.* counters into, so injections and
// recoveries read side by side.
const (
	CounterRecovered     = "recover.retransmit"
	CounterPermanentLoss = "recover.permanent_loss"
)

// CounterSet is a thread-safe registry of named monotonic counters. Unlike
// the package's single-threaded instruments, it may be updated from any
// goroutine: the fault-injection layer (internal/faults) and the live UDP
// path record every injected and recovered fault here, so chaos experiments
// can assert on exactly what happened regardless of substrate.
type CounterSet struct {
	mu sync.Mutex
	m  map[string]uint64
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet {
	return &CounterSet{m: make(map[string]uint64)}
}

// Inc increments the named counter by one.
func (c *CounterSet) Inc(name string) { c.Add(name, 1) }

// Add increments the named counter by n.
func (c *CounterSet) Add(name string, n uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[name] += n
	c.mu.Unlock()
}

// Get returns the named counter's current value (0 if never incremented).
func (c *CounterSet) Get(name string) uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Total sums every counter whose name starts with prefix ("" sums all).
func (c *CounterSet) Total(prefix string) uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum uint64
	for k, v := range c.m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// Snapshot returns a copy of all counters.
func (c *CounterSet) Snapshot() map[string]uint64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// String renders the counters as sorted "name=value" pairs.
func (c *CounterSet) String() string {
	snap := c.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, snap[k])
	}
	return strings.Join(parts, " ")
}
