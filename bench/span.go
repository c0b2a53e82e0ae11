package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call (or one burst's worth of the same call) into a
// layer: name, start, end, and the span that caused it. count is how many
// items — messages, control packets, retransmits — the call handled, so a
// per-item cost can be derived.
type span struct {
	name       string
	parent     int32 // index into spanLog.spans, -1 for a root
	start, end int64 // ns since the log began
	count      int32
}

// spanLog keeps spans in memory; nothing is written until the replay ends.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int32 // stack of spans begun and not yet ended
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span as a child of the innermost open one.
func (l *spanLog) begin() {
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.open = append(l.open, int32(len(l.spans)))
	l.spans = append(l.spans, span{parent: parent, start: int64(time.Since(l.t0))})
}

// end closes the innermost open span. It is named on the way out, because
// what a call turned out to do (evict or not, NAK or ACK) is only known
// then.
func (l *spanLog) end(name string, count int) {
	now := int64(time.Since(l.t0))
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	s := &l.spans[i]
	s.name, s.end, s.count = name, now, int32(count)
}

// selfTimes returns each span's duration minus the part its children cover.
func (l *spanLog) selfTimes() []int64 {
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// layerCost summarises the spans called name.
type layerCost struct {
	perItem []float64 // self time ÷ count, one entry per span
	self    int64     // total self time
	count   int64     // total items
}

func (l *spanLog) costs() map[string]*layerCost {
	self := l.selfTimes()
	out := map[string]*layerCost{}
	for i, s := range l.spans {
		c := out[s.name]
		if c == nil {
			c = &layerCost{}
			out[s.name] = c
		}
		c.self += self[i]
		c.count += int64(s.count)
		if s.count > 0 {
			c.perItem = append(c.perItem, float64(self[i])/float64(s.count))
		}
	}
	return out
}

// write dumps the log as a JSON array, one span per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "[")
	for i, s := range l.spans {
		sep := ","
		if i == len(l.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"count":%d}%s`+"\n",
			i, s.parent, s.name, s.start, s.end, s.count, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
