package metrics

import (
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"dmtp.rx.delivered", "dmtp_rx_delivered"},
		{"dmtp.buf.shard.3.occupancy_bytes", "dmtp_buf_shard_3_occupancy_bytes"},
		{"9abc", "_9abc"},
		{"a-b c", "a_b_c"},
		{"already_fine:metric", "already_fine:metric"},
	}
	for _, c := range cases {
		if got := promName(c.in); got != c.want {
			t.Errorf("promName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPromEscapeHelp(t *testing.T) {
	if got := promEscapeHelp(`a\b` + "\n" + "c"); got != `a\\b\nc` {
		t.Fatalf("promEscapeHelp = %q", got)
	}
}

// TestWritePromGolden pins the full text-exposition rendering: sort
// order, TYPE lines, HELP for catalogued names, and the cumulative
// power-of-two histogram buckets.
func TestWritePromGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricRxDelivered).Add(3)
	reg.Gauge("test.gauge").Set(7)
	h := reg.Histogram("test.hist")
	h.Observe(0) // bucket 0, le "0"
	h.Observe(1) // bucket 1, le "1"
	h.Observe(5) // bucket 3, le "7" (bucket 2 empty but within the tail)
	reg.RegisterSet([]string{"zz.func"}, func(dst []int64) { dst[0] = 42 })

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	help := catalogHelp(MetricRxDelivered)
	if help == "" {
		t.Fatalf("catalogHelp(%q) empty: catalogue drifted", MetricRxDelivered)
	}
	want := "# HELP dmtp_rx_delivered " + promEscapeHelp(help) + "\n" +
		"# TYPE dmtp_rx_delivered counter\n" +
		"dmtp_rx_delivered 3\n" +
		"# TYPE test_gauge gauge\n" +
		"test_gauge 7\n" +
		"# TYPE test_hist histogram\n" +
		"test_hist_bucket{le=\"0\"} 1\n" +
		"test_hist_bucket{le=\"1\"} 2\n" +
		"test_hist_bucket{le=\"3\"} 2\n" +
		"test_hist_bucket{le=\"7\"} 3\n" +
		"test_hist_bucket{le=\"+Inf\"} 3\n" +
		"test_hist_sum 6\n" +
		"test_hist_count 3\n" +
		"# TYPE zz_func gauge\n" +
		"zz_func 42\n"
	if got := b.String(); got != want {
		t.Errorf("WriteProm mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCatalogHelpFamilies checks '*'-family resolution: per-shard
// occupancy gauges inherit the family help line.
func TestCatalogHelpFamilies(t *testing.T) {
	if catalogHelp(MetricBufShardOccupancyPrefix+"0") == "" {
		t.Fatalf("shard occupancy family not resolved by catalogHelp")
	}
}
