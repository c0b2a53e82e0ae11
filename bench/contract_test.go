package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root is the benchmark's contract with
// whoever drives it; it must say exactly what the code measures.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	want := contract{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		want.EndToEnd = append(want.EndToEnd, metric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, metric{d.name, d.unit, d.better, nil})
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		b, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match the code; it should read:\n%s", b)
	}
}
