package daq

import "time"

// Experiment is one row of the paper's Table 1: a large instrument and its
// data-acquisition rate.
type Experiment struct {
	// Name as printed in Table 1.
	Name string
	// DAQRateBps is the paper-reported acquisition rate in bits/second.
	DAQRateBps float64
	// Kind describes the instrument class (as in the Table 1 caption).
	Kind string
	// Detector selects the generator family used to synthesise the load.
	Detector DetectorID
	// MessageBytes is the representative framed message size used when
	// synthesising this experiment's stream.
	MessageBytes int
}

// Catalog returns the paper's Table 1 verbatim: experiment names and DAQ
// rates, with the generator parameters this reproduction attaches to each.
func Catalog() []Experiment {
	return []Experiment{
		{Name: "CMS L1 Trigger", DAQRateBps: 63e12, Kind: "HEP collider trigger", Detector: DetGeneric, MessageBytes: 8192},
		{Name: "DUNE", DAQRateBps: 120e12, Kind: "accelerator + natural neutrinos", Detector: DetLArTPC, MessageBytes: 7680},
		{Name: "ECCE detector", DAQRateBps: 100e12, Kind: "electron-ion collider", Detector: DetGeneric, MessageBytes: 8192},
		{Name: "Mu2e", DAQRateBps: 160e9, Kind: "muon-to-electron conversion", Detector: DetMu2e, MessageBytes: 2048},
		{Name: "Vera Rubin", DAQRateBps: 400e9, Kind: "optical telescope", Detector: DetRubin, MessageBytes: 1 << 20},
	}
}

// ScaledRate returns the experiment's DAQ rate divided by scale (e.g.
// scale=1000 runs a 120 Tbps instrument at 120 Gbps, which the simulator
// sustains on a laptop while preserving the workload shape).
func (e Experiment) ScaledRate(scale float64) float64 {
	if scale <= 0 {
		scale = 1
	}
	return e.DAQRateBps / scale
}

// Stream builds a generator approximating the experiment's workload shape
// at 1/scale of the paper rate, bounded to count messages. The message
// cadence is derived so that MessageBytes at the cadence equals the scaled
// rate.
func (e Experiment) Stream(scale float64, count uint64, seed int64) Source {
	rate := e.ScaledRate(scale)
	msgBits := float64(e.MessageBytes+HeaderLen) * 8
	interval := time.Duration(msgBits / rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	switch e.Detector {
	case DetLArTPC:
		// The catalog models DUNE's 120 Tbps as the aggregate of many
		// parallel WIB fibers: one generator emitting WIB-frame-sized
		// messages at the aggregate cadence. (The pilot study, which
		// cares about waveform content, uses NewLArTPC directly.)
		return NewGeneric(GenericConfig{
			Detector:    DetLArTPC,
			MessageSize: e.MessageBytes,
			Interval:    interval,
			Count:       count,
			Seed:        seed,
		})
	case DetMu2e:
		return NewPoisson(PoissonConfig{
			Detector:    DetMu2e,
			MeanRateHz:  float64(time.Second) / float64(interval),
			MessageSize: e.MessageBytes,
			Count:       count,
			Seed:        seed,
		})
	case DetRubin:
		cfg := DefaultRubin(count, seed)
		cfg.ImageBytes = e.MessageBytes
		cfg.ImageInterval = interval
		return NewRubin(cfg)
	default:
		return NewGeneric(GenericConfig{
			MessageSize: e.MessageBytes,
			Interval:    interval,
			Count:       count,
			Seed:        seed,
		})
	}
}

// MeasuredRate estimates the bit rate of a record stream from its first n
// records: total framed bits divided by the generation-time span.
func MeasuredRate(src Source, n int) (bps float64, msgs int) {
	recs := Drain(src, n)
	if len(recs) < 2 {
		return 0, len(recs)
	}
	span := recs[len(recs)-1].At - recs[0].At
	if span <= 0 {
		return 0, len(recs)
	}
	bits := float64(TotalBytes(recs) * 8)
	return bits / span.Seconds(), len(recs)
}
