package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// canonHeader normalises h so that extension fields of inactive features are
// zero, matching what a decode of the encoded form produces.
func canonHeader(h Header) Header {
	out := Header{ConfigID: h.ConfigID, Features: h.Features & AllFeatures, Experiment: h.Experiment}
	if out.ConfigID >= ControlBase {
		out.ConfigID = uint8(h.ConfigID % ControlBase) // keep in data range for round-trips
	}
	f := out.Features
	if f.Has(FeatSequenced) {
		out.Seq = h.Seq
	}
	if f.Has(FeatReliable) {
		out.Retransmit = h.Retransmit
	}
	if f.Has(FeatTimely) {
		out.Deadline = h.Deadline
	}
	if f.Has(FeatAgeTracked) {
		out.Age = h.Age
	}
	if f.Has(FeatPaced) {
		out.Pace = h.Pace
	}
	if f.Has(FeatBackPressure) {
		out.BackPressure = h.BackPressure
	}
	if f.Has(FeatDuplicate) {
		out.Dup = h.Dup
	}
	if f.Has(FeatEncrypted) {
		out.Cipher = h.Cipher
	}
	if f.Has(FeatTimestamped) {
		out.Timestamp = h.Timestamp
	}
	if f.Has(FeatTraced) {
		out.Trace = h.Trace
		for i := range out.Trace.Hops {
			out.Trace.Hops[i].Stamp &= TraceStampMask
		}
	}
	return out
}

func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(h Header, payload []byte) bool {
		h = canonHeader(h)
		enc, err := h.AppendTo(nil)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		if len(enc) != h.WireSize() {
			t.Logf("WireSize %d != encoded %d", h.WireSize(), len(enc))
			return false
		}
		enc = append(enc, payload...)
		var got Header
		n, err := got.DecodeFromBytes(enc)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if n != h.WireSize() {
			t.Logf("decode consumed %d, want %d", n, h.WireSize())
			return false
		}
		if !bytes.Equal(enc[n:], payload) {
			t.Log("payload corrupted")
			return false
		}
		return reflect.DeepEqual(got, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderZeroValueIsMode0(t *testing.T) {
	var h Header
	enc, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != CoreHeaderLen {
		t.Fatalf("mode-0 header is %d bytes, want %d", len(enc), CoreHeaderLen)
	}
	var got Header
	if _, err := got.DecodeFromBytes(enc); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip changed zero header: %+v", got)
	}
}

func TestHeaderRejectsUnknownFeatureBits(t *testing.T) {
	h := Header{Features: 1 << 23}
	if _, err := h.AppendTo(nil); err == nil {
		t.Fatal("AppendTo accepted undefined feature bit")
	}
	raw := []byte{0x01, 0x80, 0x00, 0x00, 0, 0, 0, 1}
	var got Header
	if _, err := got.DecodeFromBytes(raw); err == nil {
		t.Fatal("DecodeFromBytes accepted undefined feature bit")
	}
}

func TestHeaderTruncation(t *testing.T) {
	h := Header{
		ConfigID:   2,
		Features:   FeatSequenced | FeatReliable | FeatTimely,
		Experiment: NewExperimentID(7, 3),
		Seq:        SeqExt{Seq: 42},
		Retransmit: RetransmitExt{Buffer: AddrFrom(10, 0, 0, 1, 9000)},
		Deadline:   DeadlineExt{DeadlineNanos: 1e9, Notify: AddrFrom(10, 0, 0, 2, 9001)},
	}
	enc, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		var got Header
		if _, err := got.DecodeFromBytes(enc[:cut]); err == nil {
			t.Fatalf("decode accepted truncation to %d of %d bytes", cut, len(enc))
		}
	}
}

func TestExperimentIDPacking(t *testing.T) {
	e := NewExperimentID(0xABCDEF, 0x42)
	if e.Experiment() != 0xABCDEF {
		t.Fatalf("experiment = %#x", e.Experiment())
	}
	if e.Slice() != 0x42 {
		t.Fatalf("slice = %#x", e.Slice())
	}
	// Slices of the same instrument share an experiment number (Req 8).
	other := NewExperimentID(0xABCDEF, 0x43)
	if other.Experiment() != e.Experiment() {
		t.Fatal("slices should share the experiment number")
	}
	if other == e {
		t.Fatal("distinct slices should be distinct IDs")
	}
}

func TestFeatureStringAndValidity(t *testing.T) {
	if Features(0).String() != "none" {
		t.Fatalf("empty feature string: %q", Features(0).String())
	}
	s := (FeatSequenced | FeatReliable | FeatAgeTracked).String()
	if s != "seq|rel|age" {
		t.Fatalf("feature string %q", s)
	}
	if !AllFeatures.Valid() {
		t.Fatal("AllFeatures must be valid")
	}
	if (AllFeatures + 1).Valid() {
		t.Fatal("out-of-range feature set must be invalid")
	}
}

func TestControlHeaderHasNoExtensions(t *testing.T) {
	h := Header{ConfigID: ConfigNAK, Experiment: NewExperimentID(5, 0)}
	enc, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Header
	n, err := got.DecodeFromBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != CoreHeaderLen {
		t.Fatalf("control header consumed %d bytes", n)
	}
	if !got.IsControl() {
		t.Fatal("control header not detected")
	}
}

func TestHeaderStringForms(t *testing.T) {
	h := Header{ConfigID: 1, Features: FeatSequenced, Experiment: NewExperimentID(9, 1)}
	if h.String() == "" {
		t.Fatal("empty String()")
	}
	c := Header{ConfigID: ConfigAck}
	if c.String() == "" {
		t.Fatal("empty control String()")
	}
	if AddrFrom(1, 2, 3, 4, 80).String() != "1.2.3.4:80" {
		t.Fatalf("addr string %q", AddrFrom(1, 2, 3, 4, 80).String())
	}
}

func fuzzHeaderBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		b := fuzzHeaderBytes(r, r.Intn(128))
		var h Header
		_, _ = h.DecodeFromBytes(b) // must not panic
		v := View(b)
		if _, err := v.Check(); err == nil {
			// If Check passes, all accessors must be safe.
			_ = v.HeaderLen()
			_ = v.Payload()
			_, _ = v.Seq()
			_, _ = v.Age()
		}
	}
}
