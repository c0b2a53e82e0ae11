package experiments

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("experiment", "rate")
	tb.Row("DUNE", 120.0)
	tb.Row("Mu2e", 0.16)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "experiment") {
		t.Fatalf("header line %q", lines[0])
	}
	if !strings.Contains(lines[2], "DUNE") || !strings.Contains(lines[2], "120") {
		t.Fatalf("row %q", lines[2])
	}
}
