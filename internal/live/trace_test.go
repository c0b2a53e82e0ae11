package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/tracespan"
)

// TestLiveLoopbackTraceExport is the tracing acceptance run: a fully
// sampled live loopback under injected loss must yield span trees with at
// least three hop spans per message (tx → reshape → rx) plus at least one
// NAK-recovery span, and the exported Chrome trace-event JSON must be
// loadable and carry those spans.
func TestLiveLoopbackTraceExport(t *testing.T) {
	tracer := tracespan.NewCollector(0)
	recv, err := NewReceiver(ReceiverConfig{
		Listen:   "127.0.0.1:0",
		NAKDelay: time.Millisecond,
		NAKRetry: 10 * time.Millisecond,
		MaxNAKs:  10,
		Tracer:   tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	relay, err := NewRelay(RelayConfig{
		Listen:         "127.0.0.1:0",
		CapacityBytes:  testCapacity,
		Forward:        recv.Addr(),
		MaxAge:         5 * time.Second,
		DeadlineBudget: 10 * time.Second,
		DropEveryN:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	snd, err := NewSenderWithConfig(SenderConfig{
		Dst:         relay.Addr(),
		Experiment:  777,
		TraceSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	const n = 100
	for i := 0; i < n; i++ {
		if err := snd.Send([]byte(fmt.Sprintf("payload-%04d", i)), 0); err != nil {
			t.Fatal(err)
		}
		if i%25 == 24 {
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		st := recv.Stats()
		return st.Delivered+st.PermanentLoss >= n-1 && recv.OutstandingGaps() == 0
	}, "recovery")
	if recv.Stats().Recovered == 0 {
		t.Fatalf("injected loss produced no recoveries: %+v", recv.Stats())
	}

	// Span structure: every record has tx → reshape:1 → … → rx (≥3 hop
	// spans), and at least one recovered record passed through the stash.
	var recovered int
	for _, s := range tracer.Structures() {
		if !strings.HasPrefix(s, "id=") || !strings.Contains(s, "hops=tx>reshape:1>") {
			t.Fatalf("unexpected span structure %q", s)
		}
		if strings.Contains(s, ">rtx>") != strings.Contains(s, " recovered") {
			t.Fatalf("rtx hop and recovery marker disagree: %q", s)
		}
		if strings.Contains(s, " recovered") {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatalf("no recovery-shaped span among %d records", len(tracer.Structures()))
	}

	// Export: valid trace-event JSON with ≥3 hop spans per message and the
	// recovery span present.
	var buf bytes.Buffer
	if err := tracer.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TsUs  float64 `json:"ts"`
			Tid   uint32  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	hopSpans := map[uint32]int{} // per trace ID
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		names[ev.Name]++
		hopSpans[ev.Tid]++
	}
	for tid, nspans := range hopSpans {
		if nspans < 3 {
			t.Fatalf("trace %d has %d spans, want >= 3 (tx, reshape, rx)", tid, nspans)
		}
	}
	if names["tx"] == 0 || names["reshape:1"] == 0 || names["rx"] == 0 {
		t.Fatalf("hop spans missing from export: %v", names)
	}
	if names["recovered"] == 0 {
		t.Fatalf("no recovery span in export: %v", names)
	}
}
