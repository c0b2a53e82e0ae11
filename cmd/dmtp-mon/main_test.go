package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPostmortemGolden reads a crash file written by an earlier build's
// black-box writer and checks the report and the -trace-out JSON byte for
// byte. The ring holds a recovered gap, a gap written off after 5 NAKs, a
// gap still open at the crash, and a NAK.
func TestPostmortemGolden(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	if err := runPostmortem(&out, filepath.Join("testdata", "blackbox.json"), traceOut); err != nil {
		t.Fatalf("runPostmortem: %v", err)
	}
	report := readFile(t, filepath.Join("testdata", "postmortem.golden"))
	if want := report + "\ntrace written to " + traceOut + "\n"; out.String() != want {
		t.Errorf("report differs from testdata/postmortem.golden\ngot:\n%s\nwant:\n%s", out.String(), want)
	}
	if got, want := readFile(t, traceOut), readFile(t, filepath.Join("testdata", "trace.golden")); got != want {
		t.Errorf("trace differs from testdata/trace.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
