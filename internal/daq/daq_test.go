package daq

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(h Header) bool {
		enc := h.AppendTo(nil)
		if len(enc) != HeaderLen {
			return false
		}
		var got Header
		n, err := got.DecodeFromBytes(enc)
		if err != nil || n != HeaderLen {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderShortDecode(t *testing.T) {
	var h Header
	if _, err := h.DecodeFromBytes(make([]byte, HeaderLen-1)); err == nil {
		t.Fatal("short decode accepted")
	}
}

func TestWIBHeaderRoundTripQuick(t *testing.T) {
	f := func(w WIBHeader) bool {
		enc := w.AppendTo(nil)
		var got WIBHeader
		n, err := got.DecodeFromBytes(enc)
		return err == nil && n == WIBHeaderLen && got == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestADCPackUnpackQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		samples := make([]uint16, len(raw))
		for i, v := range raw {
			samples[i] = v & 0x0FFF
		}
		packed := PackADC(samples)
		got, err := UnpackADC(packed, len(samples))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, samples) || (len(got) == 0 && len(samples) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestADCPackingDensity(t *testing.T) {
	packed := PackADC(make([]uint16, 1000))
	if len(packed) != 1500 {
		t.Fatalf("1000 12-bit samples packed to %d bytes, want 1500", len(packed))
	}
	if _, err := UnpackADC(packed[:10], 1000); err == nil {
		t.Fatal("short unpack accepted")
	}
}

func TestLArTPCFrameStructure(t *testing.T) {
	src := NewLArTPC(DefaultLArTPC(3, 5, 42))
	recs := Drain(src, 0)
	if len(recs) != 5 {
		t.Fatalf("generated %d frames", len(recs))
	}
	period := src.FramePeriod()
	if period != 32*time.Microsecond { // 64 samples × 500 ns
		t.Fatalf("frame period %v", period)
	}
	for i, rec := range recs {
		if rec.At != time.Duration(i)*period {
			t.Fatalf("frame %d at %v", i, rec.At)
		}
		var h Header
		n, err := h.DecodeFromBytes(rec.Data)
		if err != nil {
			t.Fatal(err)
		}
		if h.Detector != DetLArTPC || h.Slice != 3 || h.Seq != uint64(i) {
			t.Fatalf("header %+v", h)
		}
		var w WIBHeader
		wn, err := w.DecodeFromBytes(rec.Data[n:])
		if err != nil {
			t.Fatal(err)
		}
		if int(h.PayloadLen) != WIBHeaderLen+w.ADCBlockLen() {
			t.Fatalf("payload len %d vs %d", h.PayloadLen, WIBHeaderLen+w.ADCBlockLen())
		}
		if len(rec.Data) != HeaderLen+int(h.PayloadLen) {
			t.Fatalf("frame size %d", len(rec.Data))
		}
		if len(rec.Data) != src.FrameBytes() {
			t.Fatalf("FrameBytes %d != actual %d", src.FrameBytes(), len(rec.Data))
		}
		samples, err := UnpackADC(rec.Data[n+wn:], int(w.Channels)*int(w.Samples))
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 64*64 {
			t.Fatalf("sample count %d", len(samples))
		}
	}
}

func TestLArTPCWaveformStatistics(t *testing.T) {
	cfg := DefaultLArTPC(0, 50, 7)
	cfg.PulseRatePerChannelHz = 0 // pure noise: mean ≈ baseline, sd ≈ sigma
	src := NewLArTPC(cfg)
	var all []uint16
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		var h Header
		n, _ := h.DecodeFromBytes(rec.Data)
		var w WIBHeader
		wn, _ := w.DecodeFromBytes(rec.Data[n:])
		s, err := UnpackADC(rec.Data[n+wn:], int(w.Channels)*int(w.Samples))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, s...)
	}
	mean, sd := meanOf(all), stddevOf(all)
	if math.Abs(mean-900) > 1 {
		t.Fatalf("noise mean %v, want ≈900", mean)
	}
	if math.Abs(sd-4) > 0.5 {
		t.Fatalf("noise sd %v, want ≈4", sd)
	}
}

func TestLArTPCPulsesRaiseTriggerPrimitives(t *testing.T) {
	quiet := DefaultLArTPC(0, 20, 9)
	quiet.PulseRatePerChannelHz = 0
	loud := DefaultLArTPC(0, 20, 9)
	loud.PulseRatePerChannelHz = 50_000
	countPrims := func(cfg LArTPCConfig) (total uint64) {
		src := NewLArTPC(cfg)
		for {
			rec, ok := src.Next()
			if !ok {
				return
			}
			var h Header
			n, _ := h.DecodeFromBytes(rec.Data)
			var w WIBHeader
			if _, err := w.DecodeFromBytes(rec.Data[n:]); err != nil {
				t.Fatal(err)
			}
			total += uint64(w.TriggerPrimitives)
			if w.TriggerPrimitives > 0 && h.Flags&FlagTriggered == 0 {
				t.Fatal("primitives present but FlagTriggered unset")
			}
		}
	}
	if q, l := countPrims(quiet), countPrims(loud); l <= q*10 {
		t.Fatalf("pulses should dominate primitives: quiet=%d loud=%d", q, l)
	}
}

func TestLArTPCDeterminism(t *testing.T) {
	a := Drain(NewLArTPC(DefaultLArTPC(1, 10, 5)), 0)
	b := Drain(NewLArTPC(DefaultLArTPC(1, 10, 5)), 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c := Drain(NewLArTPC(DefaultLArTPC(1, 10, 6)), 0)
	same := true
	for i := range a {
		if !reflect.DeepEqual(a[i].Data, c[i].Data) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical waveforms")
	}
}

func TestGenericSourceShape(t *testing.T) {
	src := NewGeneric(GenericConfig{MessageSize: 1000, Interval: time.Millisecond, Count: 100, Seed: 1})
	recs := Drain(src, 0)
	if len(recs) != 100 {
		t.Fatalf("count %d", len(recs))
	}
	for i, r := range recs {
		if r.At != time.Duration(i)*time.Millisecond {
			t.Fatalf("record %d at %v", i, r.At)
		}
		if len(r.Data) != HeaderLen+1000 {
			t.Fatalf("size %d", len(r.Data))
		}
	}
}

func TestGenericJitterKeepsOrdering(t *testing.T) {
	src := NewGeneric(GenericConfig{MessageSize: 10, Interval: time.Millisecond, Jitter: 900 * time.Microsecond, Count: 500, Seed: 2})
	recs := Drain(src, 0)
	for i := 1; i < len(recs); i++ {
		if recs[i].At <= recs[i-1].At {
			t.Fatalf("time went backwards at %d: %v then %v", i, recs[i-1].At, recs[i].At)
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	src := NewPoisson(PoissonConfig{MeanRateHz: 10_000, MessageSize: 100, Count: 20_000, Seed: 3})
	recs := Drain(src, 0)
	span := recs[len(recs)-1].At.Seconds()
	rate := float64(len(recs)) / span
	if math.Abs(rate-10_000)/10_000 > 0.05 {
		t.Fatalf("poisson rate %.0f Hz, want ≈10000", rate)
	}
}

func TestSupernovaBurstDecays(t *testing.T) {
	src := NewSupernova(DefaultSupernova(11))
	recs := Drain(src, 0)
	if len(recs) < 100 {
		t.Fatalf("burst produced only %d events", len(recs))
	}
	var early, late int
	for _, r := range recs {
		if r.Flags&FlagSupernova == 0 {
			t.Fatal("missing supernova flag")
		}
		if r.At < 2*time.Second {
			early++
		}
		if r.At > 8*time.Second {
			late++
		}
		if r.At > 10*time.Second {
			t.Fatalf("event outside window at %v", r.At)
		}
	}
	if late*4 >= early {
		t.Fatalf("burst should decay: early=%d late=%d", early, late)
	}
}

func TestRubinInterleavesAlerts(t *testing.T) {
	cfg := DefaultRubin(50, 13)
	src := NewRubin(cfg)
	recs := Drain(src, 0)
	var images, alerts int
	for i, r := range recs {
		if i > 0 && r.At < recs[i-1].At {
			t.Fatalf("time disorder at %d", i)
		}
		if r.Flags&FlagAlert != 0 {
			alerts++
			if len(r.Data) != HeaderLen+cfg.AlertBytes {
				t.Fatalf("alert size %d", len(r.Data))
			}
		} else {
			images++
			if len(r.Data) != HeaderLen+cfg.ImageBytes {
				t.Fatalf("image size %d", len(r.Data))
			}
		}
	}
	if images != 50 {
		t.Fatalf("images %d", images)
	}
	if alerts < 100 || alerts > 350 {
		t.Fatalf("alerts %d, want ≈200 for mean 4/image", alerts)
	}
}

func TestMergeOrdersAcrossSources(t *testing.T) {
	a := NewGeneric(GenericConfig{MessageSize: 1, Interval: 3 * time.Millisecond, Count: 10, Seed: 1})
	b := NewGeneric(GenericConfig{MessageSize: 2, Interval: 2 * time.Millisecond, Count: 15, Seed: 2})
	m := NewMerge(a, b)
	recs := Drain(m, 0)
	if len(recs) != 25 {
		t.Fatalf("merged %d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatalf("merge disorder at %d", i)
		}
	}
}

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 5 {
		t.Fatalf("catalog has %d rows", len(cat))
	}
	want := map[string]float64{
		"CMS L1 Trigger": 63e12,
		"DUNE":           120e12,
		"ECCE detector":  100e12,
		"Mu2e":           160e9,
		"Vera Rubin":     400e9,
	}
	for _, e := range cat {
		if want[e.Name] != e.DAQRateBps {
			t.Fatalf("%s rate %v", e.Name, e.DAQRateBps)
		}
	}
}

func TestCatalogStreamsApproximateScaledRates(t *testing.T) {
	for _, e := range Catalog() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			const scale = 1000
			src := e.Stream(scale, 3000, 99)
			rate, n := MeasuredRate(src, 3000)
			if n < 100 {
				t.Fatalf("only %d messages", n)
			}
			target := e.ScaledRate(scale)
			ratio := rate / target
			if ratio < 0.85 || ratio > 1.25 {
				t.Fatalf("measured %.3g bps vs target %.3g (ratio %.2f)", rate, target, ratio)
			}
		})
	}
}

func TestScaledRateGuardsZero(t *testing.T) {
	e := Catalog()[0]
	if e.ScaledRate(0) != e.DAQRateBps {
		t.Fatal("scale 0 should mean unscaled")
	}
}

func TestDrainLimit(t *testing.T) {
	src := NewGeneric(GenericConfig{MessageSize: 1, Interval: time.Millisecond, Count: 100, Seed: 1})
	if got := len(Drain(src, 7)); got != 7 {
		t.Fatalf("drained %d", got)
	}
}

func TestDetectorStrings(t *testing.T) {
	for _, d := range []DetectorID{DetLArTPC, DetMu2e, DetRubin, DetGeneric, DetectorID(9)} {
		if d.String() == "" {
			t.Fatal("empty detector string")
		}
	}
}

// meanOf returns the mean ADC value, for validating the synthesis
// statistics.
func meanOf(samples []uint16) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	return sum / float64(len(samples))
}

// stddevOf returns the sample standard deviation.
func stddevOf(samples []uint16) float64 {
	if len(samples) < 2 {
		return 0
	}
	m := meanOf(samples)
	var ss float64
	for _, v := range samples {
		d := float64(v) - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(samples)-1))
}
