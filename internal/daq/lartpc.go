package daq

import (
	"fmt"
	"math/rand"
	"time"
)

// WIBHeaderLen is the encoded size of the LArTPC subheader, modelled on the
// DUNE WIB (Warm Interface Board) Ethernet readout frame header [68].
const WIBHeaderLen = 12

// WIBHeader is the LArTPC detector-specific subheader: which electronics
// chain produced the frame and the framing of its ADC block.
type WIBHeader struct {
	Crate uint8
	Slot  uint8
	Fiber uint8
	// Channels is the number of wire channels in the ADC block.
	Channels uint8
	// Samples is the number of 12-bit time samples per channel.
	Samples uint16
	// SampleNs is the digitisation period in nanoseconds (DUNE: 500 ns,
	// i.e. 2 MHz sampling).
	SampleNs uint16
	// TriggerPrimitives counts threshold crossings detected in the frame,
	// the quantity DAQ preprocessing uses to select interesting data.
	TriggerPrimitives uint32
}

// AppendTo appends the encoded subheader to b.
func (w *WIBHeader) AppendTo(b []byte) []byte {
	var hdr [WIBHeaderLen]byte
	hdr[0] = w.Crate
	hdr[1] = w.Slot
	hdr[2] = w.Fiber
	hdr[3] = w.Channels
	be.PutUint16(hdr[4:6], w.Samples)
	be.PutUint16(hdr[6:8], w.SampleNs)
	be.PutUint32(hdr[8:12], w.TriggerPrimitives)
	return append(b, hdr[:]...)
}

// DecodeFromBytes parses the subheader from the start of b.
func (w *WIBHeader) DecodeFromBytes(b []byte) (int, error) {
	if len(b) < WIBHeaderLen {
		return 0, fmt.Errorf("%w: %d bytes for WIB subheader", ErrShortHeader, len(b))
	}
	w.Crate = b[0]
	w.Slot = b[1]
	w.Fiber = b[2]
	w.Channels = b[3]
	w.Samples = be.Uint16(b[4:6])
	w.SampleNs = be.Uint16(b[6:8])
	w.TriggerPrimitives = be.Uint32(b[8:12])
	return WIBHeaderLen, nil
}

// ADCBlockLen returns the byte length of the packed 12-bit ADC block
// described by the subheader (two samples pack into three bytes).
func (w *WIBHeader) ADCBlockLen() int {
	n := int(w.Channels) * int(w.Samples)
	return (n*3 + 1) / 2
}

// PackADC packs 12-bit samples two-per-three-bytes. Samples are clamped to
// 12 bits. The slice length must be even (frames use even sample counts).
func PackADC(samples []uint16) []byte {
	out := make([]byte, 0, (len(samples)*3+1)/2)
	for i := 0; i+1 < len(samples); i += 2 {
		a, b := samples[i]&0x0FFF, samples[i+1]&0x0FFF
		out = append(out, byte(a>>4), byte(a<<4)|byte(b>>8), byte(b))
	}
	if len(samples)%2 == 1 {
		a := samples[len(samples)-1] & 0x0FFF
		out = append(out, byte(a>>4), byte(a<<4))
	}
	return out
}

// UnpackADC reverses PackADC for n samples.
func UnpackADC(b []byte, n int) ([]uint16, error) {
	need := (n*3 + 1) / 2
	if len(b) < need {
		return nil, fmt.Errorf("daq: ADC block %d bytes, need %d for %d samples", len(b), need, n)
	}
	out := make([]uint16, 0, n)
	for i := 0; len(out) < n; i += 3 {
		out = append(out, uint16(b[i])<<4|uint16(b[i+1])>>4)
		if len(out) < n {
			out = append(out, uint16(b[i+1]&0x0F)<<8|uint16(b[i+2]))
		}
	}
	return out, nil
}

// LArTPCConfig configures a synthetic LArTPC readout stream.
type LArTPCConfig struct {
	// Slice is the instrument partition the stream belongs to (Req 8).
	Slice              uint8
	Run                uint32
	Crate, Slot, Fiber uint8
	// Channels per frame (DUNE WIB: 64 per frame in the Ethernet readout).
	Channels uint8
	// SamplesPerFrame per channel (64 keeps frames jumbo-sized).
	SamplesPerFrame uint16
	// SampleNs is the digitisation period (DUNE: 500).
	SampleNs uint16
	// Baseline is the ADC pedestal (DUNE collection plane: ~900).
	Baseline uint16
	// NoiseSigma is the Gaussian noise amplitude in ADC counts.
	NoiseSigma float64
	// PulseRatePerChannelHz is the mean rate of ionisation pulses.
	PulseRatePerChannelHz float64
	// PulseAmplitude is the mean pulse peak above baseline.
	PulseAmplitude float64
	// TriggerThreshold is the ADC excess that counts a trigger primitive.
	TriggerThreshold uint16
	// Frames is the total number of frames to generate; 0 means unbounded.
	Frames uint64
	// Seed makes the stream reproducible.
	Seed int64
}

// DefaultLArTPC returns the configuration used across the experiments: a
// jumbo-frame-sized WIB stream (64 ch × 64 samples ≈ 6.2 KiB of ADC data).
func DefaultLArTPC(slice uint8, frames uint64, seed int64) LArTPCConfig {
	return LArTPCConfig{
		Slice:                 slice,
		Run:                   1,
		Channels:              64,
		SamplesPerFrame:       64,
		SampleNs:              500,
		Baseline:              900,
		NoiseSigma:            4,
		PulseRatePerChannelHz: 200,
		PulseAmplitude:        160,
		TriggerThreshold:      60,
		Frames:                frames,
		Seed:                  seed,
	}
}

// LArTPCSource synthesises a LArTPC waveform stream: per-channel Gaussian
// noise around a pedestal, plus Poisson-arriving ionisation pulses with a
// fast rise and exponential tail — the signal shape a wire plane sees from
// drifting charge. Frames are emitted back to back at the digitisation
// cadence, exactly like a continuous streaming readout.
type LArTPCSource struct {
	cfg   LArTPCConfig
	rng   *rand.Rand
	frame uint64
	// pulseRemain tracks, per channel, remaining samples of an active
	// pulse tail and its current amplitude.
	tailAmp []float64
	samples []uint16 // scratch
}

// NewLArTPC returns a new synthetic LArTPC stream.
func NewLArTPC(cfg LArTPCConfig) *LArTPCSource {
	if cfg.Channels == 0 || cfg.SamplesPerFrame == 0 {
		panic("daq: LArTPC config needs channels and samples")
	}
	return &LArTPCSource{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		tailAmp: make([]float64, cfg.Channels),
		samples: make([]uint16, int(cfg.Channels)*int(cfg.SamplesPerFrame)),
	}
}

// FramePeriod returns the time covered by (and between) successive frames.
func (s *LArTPCSource) FramePeriod() time.Duration {
	return time.Duration(uint64(s.cfg.SamplesPerFrame) * uint64(s.cfg.SampleNs))
}

// FrameBytes returns the framed size of each record.
func (s *LArTPCSource) FrameBytes() int {
	w := WIBHeader{Channels: s.cfg.Channels, Samples: s.cfg.SamplesPerFrame}
	return HeaderLen + WIBHeaderLen + w.ADCBlockLen()
}

// Next implements Source.
func (s *LArTPCSource) Next() (Record, bool) {
	if s.cfg.Frames != 0 && s.frame >= s.cfg.Frames {
		return Record{}, false
	}
	cfg := &s.cfg
	at := time.Duration(s.frame) * s.FramePeriod()
	// Probability a pulse starts at any given sample of a channel.
	pStart := cfg.PulseRatePerChannelHz * float64(cfg.SampleNs) * 1e-9
	var primitives uint32
	idx := 0
	for ch := 0; ch < int(cfg.Channels); ch++ {
		amp := s.tailAmp[ch]
		for t := 0; t < int(cfg.SamplesPerFrame); t++ {
			if s.rng.Float64() < pStart {
				amp += cfg.PulseAmplitude * (0.5 + s.rng.Float64())
			}
			v := float64(cfg.Baseline) + s.rng.NormFloat64()*cfg.NoiseSigma + amp
			amp *= 0.92 // exponential tail, ~12-sample decay
			if amp < 0.5 {
				amp = 0
			}
			if v < 0 {
				v = 0
			}
			if v > 4095 {
				v = 4095
			}
			s.samples[idx] = uint16(v)
			if uint16(v) > cfg.Baseline+cfg.TriggerThreshold {
				primitives++
			}
			idx++
		}
		s.tailAmp[ch] = amp
	}
	hdr := Header{
		Detector:    DetLArTPC,
		Version:     HeaderVersion,
		Slice:       cfg.Slice,
		Run:         cfg.Run,
		Seq:         s.frame,
		TimestampNs: uint64(at),
	}
	if primitives > 0 {
		hdr.Flags |= FlagTriggered
	}
	sub := WIBHeader{
		Crate: cfg.Crate, Slot: cfg.Slot, Fiber: cfg.Fiber,
		Channels: cfg.Channels, Samples: cfg.SamplesPerFrame,
		SampleNs: cfg.SampleNs, TriggerPrimitives: primitives,
	}
	adc := PackADC(s.samples)
	hdr.PayloadLen = uint32(WIBHeaderLen + len(adc))
	data := hdr.AppendTo(make([]byte, 0, HeaderLen+int(hdr.PayloadLen)))
	data = sub.AppendTo(data)
	data = append(data, adc...)
	s.frame++
	return Record{At: at, Data: data, Slice: cfg.Slice, Flags: hdr.Flags}, true
}
