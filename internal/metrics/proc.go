package metrics

import (
	"runtime"
	"time"
)

// RegisterProcessMetrics publishes process-level sampled gauges (uptime,
// goroutines, heap, GC cycles) on reg as one set: runtime.ReadMemStats
// runs once per scrape and never between, so steady-state cost is zero.
func RegisterProcessMetrics(reg *Registry) {
	start := time.Now()
	reg.RegisterSet([]string{MetricProcUptime, MetricProcGoroutines, MetricProcHeapBytes, MetricProcGCRuns}, func(dst []int64) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		dst[0] = int64(time.Since(start) / time.Second)
		dst[1] = int64(runtime.NumGoroutine())
		dst[2] = int64(m.HeapAlloc)
		dst[3] = int64(m.NumGC)
	})
}

// RegisterFlightMetrics publishes the recorder's own counters (events ever
// recorded, ring capacity) on reg. Safe with a nil recorder.
func RegisterFlightMetrics(reg *Registry, rec *FlightRecorder) {
	reg.RegisterSet([]string{MetricFlightRecorded, MetricFlightCapacity}, func(dst []int64) {
		dst[0], dst[1] = int64(rec.Total()), int64(rec.Cap())
	})
}
