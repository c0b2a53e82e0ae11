package metrics

import (
	"fmt"
	"io"
	"strings"
)

// promName sanitizes a dotted metric name into the Prometheus name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*: dots (and any other invalid rune)
// become underscores, and a leading digit gains a '_' prefix. The
// catalogue's dotted names map 1:1 ("dmtp.rx.delivered" →
// "dmtp_rx_delivered").
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, c := range name {
		valid := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if c >= '0' && c <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(c)
			continue
		}
		if valid {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscapeHelp escapes a HELP line per the text-exposition format
// (v0.0.4): backslash and newline only.
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// catalogHelp returns the catalogued help string for name ("" when the
// name is not catalogued), resolving '*'-suffixed family entries.
func catalogHelp(name string) string {
	for _, info := range Catalog {
		if info.Name == name {
			return info.Help
		}
		if strings.HasSuffix(info.Name, "*") && strings.HasPrefix(name, strings.TrimSuffix(info.Name, "*")) {
			return info.Help
		}
	}
	return ""
}

// promMeta writes the # HELP / # TYPE preamble for one metric.
func promMeta(w io.Writer, pname, name, typ string) error {
	if help := catalogHelp(name); help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", pname, promEscapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", pname, typ)
	return err
}

// WriteProm renders the registry in the Prometheus text-exposition format
// (version 0.0.4), so external scrapers work against /metrics?format=prom
// without dmtp-mon in the path. Counters emit as counter, gauges and
// sampled sets as gauge, and histograms as the full _bucket{le=…}/_sum/
// _count triplet with cumulative power-of-two buckets (bucket i's upper
// bound is 2^i − 1, matching Histogram's bit-length binning; empty tail
// buckets are elided). Catalogued metrics carry their help text as # HELP
// with v0.0.4 escaping. Like Snapshot, it runs each set's sample once.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, m := range r.read() {
		pname := promName(m.name)
		if m.h != nil {
			if err := writePromHist(w, pname, m.name, m.h); err != nil {
				return err
			}
			continue
		}
		if err := promMeta(w, pname, m.name, string(m.kind)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", pname, m.value); err != nil {
			return err
		}
	}
	return nil
}

// writePromHist renders one histogram as cumulative le buckets plus _sum
// and _count. The instrument is read live (not via Snapshot) because the
// bucket array is private to this package.
func writePromHist(w io.Writer, pname, name string, h *Histogram) error {
	if err := promMeta(w, pname, name, "histogram"); err != nil {
		return err
	}
	top := 0
	counts := [histBuckets]uint64{}
	for i := 0; i < histBuckets; i++ {
		counts[i] = h.buckets[i].Load()
		if counts[i] != 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += counts[i]
		// Bucket 0 holds exactly 0; bucket i ≥ 1 holds [2^(i-1), 2^i − 1].
		var le uint64
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pname, le, cum); err != nil {
			return err
		}
	}
	count := h.Count()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pname, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n", pname, h.sum.Load()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", pname, count)
	return err
}
