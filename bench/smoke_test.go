package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A 200 ms round of every workload — untraced, traced and, where the
// workload has one, its journal round: asserts only what must hold on any
// machine at any speed — the delivery oracle and the conservation laws —
// never a timing.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		plans := []roundPlan{{}, {traced: true}}
		if w.journal {
			plans = append(plans, roundPlan{traced: true, journal: true})
		}
		for _, plan := range plans {
			plan.warmup, plan.seed, plan.scratch = 2000, 7, t.TempDir()
			plan.closed, plan.paced = 100*time.Millisecond, 100*time.Millisecond
			what := fmt.Sprintf("%s traced=%v journal=%v", w.name, plan.traced, plan.journal)
			res, err := runRound(w, plan)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if len(res.broken) > 0 || res.failed != 0 {
				t.Errorf("%s: failed %d of %d: %v", what, res.failed, res.attempted, res.broken)
			}
			if res.attempted < 2000 || res.m["bench.paced_samples"] == 0 {
				t.Errorf("%s: attempted %d, paced samples %v", what, res.attempted, res.m["bench.paced_samples"])
			}
			if w.dropEveryN > 0 && res.m["dmtp.retransmits_per_kmsg"] == 0 {
				t.Errorf("%s: injected drops but no retransmits", what)
			}
			if plan.journal != (res.m["journal.records_per_msg"] > 0) {
				t.Errorf("%s: journal.records_per_msg=%v", what, res.m["journal.records_per_msg"])
			}
			for _, name := range []string{"goodput_msgs_s", "cpu_us_per_msg", "setup_s", "bench.machine_slowdown"} {
				if res.m[name] <= 0 {
					t.Errorf("%s: %s = %v", what, name, res.m[name])
				}
			}
		}
	}
}

// The replay must exercise, on each workload, exactly the layers that
// workload is there to stress, and leave the span file behind.
func TestReplayEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		dir := t.TempDir()
		rp, err := replay(w, 7, dir, 200*replayBurst)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, name := range []string{"wire.encode_ns_per_msg", "wire.reshape_ns_per_msg", "dmtp.stash_ns_per_msg", "metrics.record_ns_per_event"} {
			if rp.metrics[name] <= 0 {
				t.Errorf("%s: %s = %v", w.name, name, rp.metrics[name])
			}
		}
		if got := rp.metrics["journal.append_ns_per_msg"] > 0; got != w.journal {
			t.Errorf("%s: journal=%v but journal.append_ns_per_msg=%v", w.name, w.journal, rp.metrics["journal.append_ns_per_msg"])
		}
		if got := rp.metrics["dmtp.serve_nak_ns_per_retx"] > 0; got != (w.dropEveryN > 0) {
			t.Errorf("%s: dropEveryN=%d but dmtp.serve_nak_ns_per_retx=%v", w.name, w.dropEveryN, rp.metrics["dmtp.serve_nak_ns_per_retx"])
		}
		if got := rp.metrics["dmtp.trim_ns_per_msg"] > 0; got != (w.ackInterval > 0) {
			t.Errorf("%s: ackInterval=%v but dmtp.trim_ns_per_msg=%v", w.name, w.ackInterval, rp.metrics["dmtp.trim_ns_per_msg"])
		}
		if rp.pathNsPerMsg <= 0 {
			t.Errorf("%s: path total %v", w.name, rp.pathNsPerMsg)
		}
		if fi, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file: %v", w.name, err)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog()
	l.begin()
	l.begin()
	time.Sleep(2 * time.Millisecond)
	l.end("child", 4)
	l.end("parent", 8)
	c := l.costs()
	parent, child := c["parent"], c["child"]
	if child.self < int64(2*time.Millisecond) || child.count != 4 {
		t.Errorf("child: self %d count %d", child.self, child.count)
	}
	if whole := l.spans[0].end - l.spans[0].start; parent.self != whole-child.self {
		t.Errorf("parent self %d, want span %d minus child %d", parent.self, whole, child.self)
	}
	if l.spans[1].parent != 0 || l.spans[0].parent != -1 {
		t.Errorf("parents: %d %d", l.spans[0].parent, l.spans[1].parent)
	}
}
