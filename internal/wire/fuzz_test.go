package wire

import (
	"bytes"
	"testing"
)

// Fuzz targets: `go test` exercises the seed corpus; `go test -fuzz=.`
// explores further. Every decoder must reject or accept arbitrary input
// without panicking, and accepted input must re-encode consistently.

func FuzzHeaderDecode(f *testing.F) {
	seed := Header{
		ConfigID:   2,
		Features:   FeatSequenced | FeatReliable | FeatAgeTracked | FeatTimestamped,
		Experiment: NewExperimentID(7, 3),
	}
	enc, err := seed.AppendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		var h Header
		n, err := h.DecodeFromBytes(b)
		if err != nil {
			return
		}
		// Accepted headers must round-trip to the same bytes.
		re, err := h.AppendTo(nil)
		if err != nil {
			t.Fatalf("decoded header failed to encode: %v", err)
		}
		if !bytes.Equal(re, b[:n]) && !h.IsControl() {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", b[:n], re)
		}
		// The view API must be safe on anything Check admits.
		v := View(b)
		if _, err := v.Check(); err == nil {
			_ = v.Payload()
			_, _ = v.Seq()
			_, _ = v.Age()
			_, _ = v.RetransmitBuffer()
			_, _, _ = v.Deadline()
		}
	})
}

func FuzzControlDecode(f *testing.F) {
	nak := NAK{Experiment: 3, Requester: AddrFrom(1, 2, 3, 4, 5), Ranges: []SeqRange{{From: 1, To: 9}}}
	if enc, err := nak.AppendTo(nil); err == nil {
		f.Add(enc)
	}
	note := DeadlineExceeded{Experiment: 1, Seq: 2, DeadlineNanos: 3, ObservedNanos: 4}
	if enc, err := note.AppendTo(nil); err == nil {
		f.Add(enc)
	}
	sig := BackPressureSignal{Level: 9, RateHintMbps: 100}
	if enc, err := sig.AppendTo(nil); err == nil {
		f.Add(enc)
	}
	ad := ResourceAdvert{Origin: AddrFrom(9, 9, 9, 9, 9), Kind: ResourceBuffer, SeqNo: 1, TTL: 3}
	if enc, err := ad.AppendTo(nil); err == nil {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// None of the control decoders may panic.
		_ = new(NAK).DecodeFrom(b)
		_, _ = DecodeDeadlineExceeded(b)
		_, _ = DecodeBackPressure(b)
		_, _ = DecodeAck(b)
		_, _ = DecodeResourceAdvert(b)
	})
}

func FuzzTraceRoundTrip(f *testing.F) {
	seed := Header{
		ConfigID:   3,
		Features:   FeatSequenced | FeatTimestamped | FeatTraced,
		Experiment: NewExperimentID(7, 1),
	}
	enc, err := seed.AppendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := View(enc).SetTrace(TraceExt{
		TraceID: 42, Flags: TraceSampledFlag, HopCount: 2, OriginConfig: 3,
		Hops: [TraceHopSlots]TraceHop{
			{Hop: TraceHopTx, Stamp: 1000},
			{Hop: TraceReshapeHop(1), Stamp: 2000},
		},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(enc, uint8(4), int64(5000))
	f.Add([]byte{}, uint8(0), int64(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint8(255), int64(-1))
	f.Fuzz(func(t *testing.T, b []byte, hop uint8, now int64) {
		v := View(b)
		if _, err := v.Check(); err != nil {
			return
		}
		ext, err := v.Trace()
		if err != nil {
			return // FeatTraced not carried; nothing to round-trip
		}
		// Decoded extensions must survive a write/read cycle bit-exactly
		// (the reserved byte is normalised, so compare decoded structs and
		// require the second write to be byte-stable).
		cp := View(append([]byte(nil), b...))
		if err := cp.SetTrace(ext); err != nil {
			t.Fatalf("SetTrace after Trace: %v", err)
		}
		back, err := cp.Trace()
		if err != nil {
			t.Fatalf("Trace after SetTrace: %v", err)
		}
		if back != ext {
			t.Fatalf("trace round trip mismatch:\n in  %+v\n out %+v", ext, back)
		}
		cp2 := View(append([]byte(nil), cp...))
		if err := cp2.SetTrace(back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cp2, cp) {
			t.Fatalf("SetTrace not byte-stable:\n a %x\n b %x", cp, cp2)
		}
		// AppendHopStamp must write ring slot HopCount mod TraceHopSlots
		// and increment the count, saturating at 255.
		if err := cp.AppendHopStamp(hop, now); err != nil {
			t.Fatalf("AppendHopStamp: %v", err)
		}
		after, err := cp.Trace()
		if err != nil {
			t.Fatal(err)
		}
		want := ext.HopCount + 1
		if ext.HopCount == 255 {
			want = 255
		}
		if after.HopCount != want {
			t.Fatalf("HopCount %d after stamping at %d, want %d", after.HopCount, ext.HopCount, want)
		}
		slot := int(ext.HopCount) % TraceHopSlots
		if after.Hops[slot].Hop != hop || after.Hops[slot].Stamp != uint64(now)&TraceStampMask {
			t.Fatalf("slot %d holds {%d %d}, want {%d %d}",
				slot, after.Hops[slot].Hop, after.Hops[slot].Stamp, hop, uint64(now)&TraceStampMask)
		}
	})
}

func FuzzStripEncap(f *testing.F) {
	inner, err := (&Header{ConfigID: 1, Features: FeatSequenced}).AppendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	eth := Ethernet{EtherType: EtherTypeDMTP}
	f.Add(append(eth.AppendTo(nil), inner...))
	ip := IPv4{TTL: 64, Protocol: IPProtoDMTP}
	if frame, err := ip.AppendTo(nil, len(inner)); err == nil {
		f.Add(append(frame, inner...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, _, err := StripEncap(b)
		if err != nil {
			return
		}
		if _, err := v.Check(); err != nil {
			t.Fatalf("StripEncap returned an invalid view: %v", err)
		}
	})
}
