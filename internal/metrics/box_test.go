package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestBoxRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.Counter(MetricRxDelivered).Add(42)
	rec := NewFlightRecorder(16)
	rec.RecordAt(100, EvGapDetected, 7, 3, 4)
	rec.RecordAt(200, EvRecovered, 7, 3, 2)

	path, err := WriteBox(dir, "relay", "panic: boom", reg, rec)
	if err != nil {
		t.Fatalf("WriteBox: %v", err)
	}
	if !strings.HasPrefix(filepath.Base(path), "blackbox-") || !strings.HasSuffix(path, ".json") {
		t.Errorf("unexpected filename %q", path)
	}
	// The temp file must not linger.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind")
	}

	box, err := ReadBox(path)
	if err != nil {
		t.Fatalf("ReadBox: %v", err)
	}
	if box.Role != "relay" || box.Reason != "panic: boom" || box.PID != os.Getpid() {
		t.Errorf("header = %s/%s/%d", box.Role, box.Reason, box.PID)
	}
	if v, ok := SampleValue(box.Metrics, MetricRxDelivered); !ok || v != 42 {
		t.Errorf("metrics snapshot lost %s: %d %v", MetricRxDelivered, v, ok)
	}
	// The events come back with their kinds, not as kind-0.
	if want := rec.Snapshot(); !reflect.DeepEqual(box.Events, want) {
		t.Errorf("events = %+v, want %+v", box.Events, want)
	}
}

func TestBoxNilSources(t *testing.T) {
	path, err := WriteBox(t.TempDir(), "sender", "panic: boom", nil, nil)
	if err != nil {
		t.Fatalf("WriteBox: %v", err)
	}
	b, err := ReadBox(path)
	if err != nil {
		t.Fatalf("ReadBox: %v", err)
	}
	if b.Role != "sender" || len(b.Metrics) != 0 || len(b.Events) != 0 {
		t.Fatalf("nil-source box = %+v", b)
	}
}

func TestReadBoxRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"junk.json":    "not json",
		"badkind.json": `{"events": [{"at": 1, "kind": "kind-0"}]}`,
	} {
		path := filepath.Join(dir, name)
		os.WriteFile(path, []byte(body), 0o644)
		if _, err := ReadBox(path); err == nil {
			t.Errorf("%s read without error", name)
		}
	}
	if _, err := ReadBox(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file read without error")
	}
}

// TestEventKindText pins the kind's JSON form: every defined kind encodes
// as its name and decodes back, and an unknown name is an error.
func TestEventKindText(t *testing.T) {
	for _, name := range EventKindNames() {
		k, _ := EventKindFromName(name)
		data, err := json.Marshal(Event{Kind: k})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := `"kind":"` + name + `"`; !strings.Contains(string(data), want) {
			t.Errorf("%s encodes as %s", name, data)
		}
		var ev Event
		if err := json.Unmarshal(data, &ev); err != nil || ev.Kind != k {
			t.Errorf("%s decodes to %v (%v)", name, ev.Kind, err)
		}
	}
	var k EventKind
	if err := k.UnmarshalText([]byte("nak")); err == nil {
		t.Error("unknown kind name decoded without error")
	}
}

// TestRecoverySpans checks the gap lifecycles rebuilt from a ring: a
// two-seq gap whose halves recover and are written off, and a gap the
// ring holds no resolution for.
func TestRecoverySpans(t *testing.T) {
	events := []Event{
		{At: 100, Kind: EvGapDetected, Exp: 7, Seq: 3, Aux: 4}, // seqs 3 and 4
		{At: 150, Kind: EvGapDetected, Exp: 7, Seq: 9, Aux: 9}, // never resolves
		{At: 160, Kind: EvNAKSent, Exp: 7, Seq: 3, Aux: 2},
		{At: 300, Kind: EvRecovered, Exp: 7, Seq: 3, Aux: 2},
		{At: 400, Kind: EvWriteOff, Exp: 7, Seq: 4, Aux: 3},
		{At: 500, Kind: EvRecovered, Exp: 7, Seq: 4, Aux: 4}, // after the write-off: ignored
	}
	want := []RecoverySpan{
		{Exp: 7, Seq: 3, OpenedAt: 100, ClosedAt: 300, NAKs: 2, Outcome: EvRecovered},
		{Exp: 7, Seq: 4, OpenedAt: 100, ClosedAt: 400, NAKs: 3, Outcome: EvWriteOff},
		{Exp: 7, Seq: 9, OpenedAt: 150},
	}
	if got := RecoverySpans(events); !reflect.DeepEqual(got, want) {
		t.Fatalf("spans = %+v\nwant %+v", got, want)
	}
}
