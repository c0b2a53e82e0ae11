package wire

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNAKRoundTripQuick(t *testing.T) {
	f := func(exp uint32, req Addr, ranges []SeqRange) bool {
		if len(ranges) > 100 {
			ranges = ranges[:100]
		}
		n := &NAK{Experiment: ExperimentID(exp), Requester: req, Ranges: ranges}
		enc, err := n.AppendTo(nil)
		if err != nil {
			return false
		}
		got := &NAK{}
		if err := got.DecodeFrom(enc); err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if len(got.Ranges) == 0 {
			got.Ranges = nil
		}
		if len(n.Ranges) == 0 {
			n.Ranges = nil
		}
		return reflect.DeepEqual(got, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestNAKTotalMissing(t *testing.T) {
	n := &NAK{Ranges: []SeqRange{{From: 1, To: 3}, {From: 10, To: 10}, {From: 5, To: 4}}}
	if got := n.TotalMissing(); got != 4 {
		t.Fatalf("TotalMissing = %d, want 4", got)
	}
}

func TestNAKDecodeRejectsWrongType(t *testing.T) {
	a := &Ack{Experiment: 1, CumulativeSeq: 5}
	enc, err := a.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := new(NAK).DecodeFrom(enc); err == nil {
		t.Fatal("NAK.DecodeFrom accepted an ACK")
	}
}

func TestNAKDecodeTruncated(t *testing.T) {
	n := &NAK{Experiment: 1, Requester: AddrFrom(1, 2, 3, 4, 5), Ranges: []SeqRange{{From: 1, To: 2}}}
	enc, err := n.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if err := new(NAK).DecodeFrom(enc[:cut]); err == nil {
			t.Fatalf("decode accepted truncation to %d bytes", cut)
		}
	}
}

func TestDeadlineExceededRoundTrip(t *testing.T) {
	d := &DeadlineExceeded{
		Experiment:    NewExperimentID(2, 1),
		Seq:           42,
		DeadlineNanos: 1000,
		ObservedNanos: 1500,
		Reporter:      AddrFrom(10, 0, 0, 9, 8000),
	}
	enc, err := d.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDeadlineExceeded(enc)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *d {
		t.Fatalf("round trip: %+v != %+v", got, d)
	}
}

func TestBackPressureRoundTrip(t *testing.T) {
	s := &BackPressureSignal{
		Experiment:   NewExperimentID(3, 0),
		Level:        200,
		RateHintMbps: 40_000,
		Reporter:     AddrFrom(10, 0, 0, 3, 7777),
	}
	enc, err := s.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBackPressure(enc)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *s {
		t.Fatalf("round trip: %+v != %+v", got, s)
	}
}

func TestAckRoundTrip(t *testing.T) {
	a := &Ack{Experiment: 9, CumulativeSeq: 1 << 40, Acker: AddrFrom(10, 0, 0, 8, 1)}
	enc, err := a.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAck(enc)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *a {
		t.Fatalf("round trip: %+v != %+v", got, a)
	}
}

func TestControlPacketsSurviveStripEncap(t *testing.T) {
	n := &NAK{Experiment: 4, Requester: AddrFrom(1, 1, 1, 1, 1), Ranges: []SeqRange{{From: 0, To: 0}}}
	enc, err := n.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	v, encap, err := StripEncap(enc)
	if err != nil {
		t.Fatal(err)
	}
	if encap != EncapNone {
		t.Fatalf("encap %v", encap)
	}
	if !v.IsControl() {
		t.Fatal("control bit lost")
	}
	if err := new(NAK).DecodeFrom(v); err != nil {
		t.Fatal(err)
	}
}

func TestResourceKindStrings(t *testing.T) {
	for _, k := range []ResourceKind{ResourceBuffer, ResourceModeChanger, ResourceDuplicator, ResourceTelemetry, ResourceKind(77)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}
