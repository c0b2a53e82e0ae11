package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func mustEncode(t *testing.T, h Header, payload []byte) View {
	t.Helper()
	b, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return View(append(b, payload...))
}

func TestViewAccessorsMatchDecodedHeader(t *testing.T) {
	h := Header{
		ConfigID:     3,
		Features:     AllFeatures,
		Experiment:   NewExperimentID(100, 7),
		Seq:          SeqExt{Seq: 0xDEADBEEF},
		Retransmit:   RetransmitExt{Buffer: AddrFrom(10, 1, 1, 1, 7000)},
		Deadline:     DeadlineExt{DeadlineNanos: 123456789, Notify: AddrFrom(10, 1, 1, 2, 7001)},
		Age:          AgeExt{AgeMicros: 10, MaxAgeMicros: 1000},
		Pace:         PaceExt{RateMbps: 100_000, BurstKB: 9},
		BackPressure: BackPressureExt{Sink: AddrFrom(10, 1, 1, 3, 7002), Level: 5},
		Dup:          DupExt{Group: 77, Scope: 2},
		Cipher:       CipherExt{KeyEpoch: 4, Nonce: 999},
		Timestamp:    TimestampExt{OriginNanos: 42},
	}
	payload := []byte("waveform")
	v := mustEncode(t, h, payload)
	if _, err := v.Check(); err != nil {
		t.Fatal(err)
	}
	if v.ConfigID() != 3 || v.Experiment() != h.Experiment {
		t.Fatal("core fields mismatch")
	}
	if seq, _ := v.Seq(); seq != h.Seq.Seq {
		t.Fatalf("seq %d", seq)
	}
	if buf, _ := v.RetransmitBuffer(); buf != h.Retransmit.Buffer {
		t.Fatalf("retransmit buffer %v", buf)
	}
	dl, notify, err := v.Deadline()
	if err != nil || dl != h.Deadline.DeadlineNanos || notify != h.Deadline.Notify {
		t.Fatalf("deadline %d %v %v", dl, notify, err)
	}
	if age, _ := v.Age(); age != h.Age {
		t.Fatalf("age %+v", age)
	}
	if p, _ := v.Pace(); p != h.Pace {
		t.Fatalf("pace %+v", p)
	}
	if bp, _ := v.BackPressure(); bp != h.BackPressure {
		t.Fatalf("bp %+v", bp)
	}
	if d, _ := v.Dup(); d != h.Dup {
		t.Fatalf("dup %+v", d)
	}
	if ts, _ := v.OriginTimestamp(); ts != h.Timestamp.OriginNanos {
		t.Fatalf("ts %d", ts)
	}
	if !bytes.Equal(v.Payload(), payload) {
		t.Fatal("payload mismatch")
	}
}

func TestViewInPlaceMutation(t *testing.T) {
	h := Header{ConfigID: 2, Features: FeatSequenced | FeatReliable | FeatAgeTracked, Experiment: NewExperimentID(1, 0)}
	v := mustEncode(t, h, []byte("p"))

	if err := v.SetSeq(99); err != nil {
		t.Fatal(err)
	}
	if seq, _ := v.Seq(); seq != 99 {
		t.Fatalf("seq after SetSeq = %d", seq)
	}
	buf := AddrFrom(192, 168, 0, 1, 1234)
	if err := v.SetRetransmitBuffer(buf); err != nil {
		t.Fatal(err)
	}
	if got, _ := v.RetransmitBuffer(); got != buf {
		t.Fatalf("buffer after set = %v", got)
	}
	if err := v.SetMaxAge(100); err != nil {
		t.Fatal(err)
	}
	aged, err := v.AddAge(40)
	if err != nil || aged {
		t.Fatalf("AddAge(40): aged=%v err=%v", aged, err)
	}
	aged, err = v.AddAge(60)
	if err != nil || !aged {
		t.Fatalf("AddAge to threshold: aged=%v err=%v", aged, err)
	}
	age, _ := v.Age()
	if age.AgeMicros != 100 || !age.Aged() {
		t.Fatalf("age state %+v", age)
	}
	// Aged flag is sticky.
	if aged, _ = v.AddAge(0); !aged {
		t.Fatal("aged flag must be sticky")
	}
}

func TestViewAddAgeSaturates(t *testing.T) {
	h := Header{ConfigID: 1, Features: FeatAgeTracked}
	h.Age.AgeMicros = ^uint32(0) - 5
	v := mustEncode(t, h, nil)
	if _, err := v.AddAge(100); err != nil {
		t.Fatal(err)
	}
	age, _ := v.Age()
	if age.AgeMicros != ^uint32(0) {
		t.Fatalf("age should saturate, got %d", age.AgeMicros)
	}
}

func TestViewAddAgeZeroMaxNeverAges(t *testing.T) {
	h := Header{ConfigID: 1, Features: FeatAgeTracked}
	v := mustEncode(t, h, nil)
	if aged, _ := v.AddAge(1 << 30); aged {
		t.Fatal("max age 0 means no budget; packet must not age out")
	}
}

func TestViewActivatePreservesValuesAndPayload(t *testing.T) {
	h := Header{
		ConfigID:   1,
		Features:   FeatSequenced,
		Experiment: NewExperimentID(3, 1),
		Seq:        SeqExt{Seq: 7},
	}
	payload := []byte("detector frame")
	v := mustEncode(t, h, payload)

	// Network element upgrades the packet into a reliable, age-tracked mode.
	v2, err := v.Activate(2, FeatReliable|FeatAgeTracked)
	if err != nil {
		t.Fatal(err)
	}
	if v2.ConfigID() != 2 {
		t.Fatalf("config id %d", v2.ConfigID())
	}
	if v2.Features() != FeatSequenced|FeatReliable|FeatAgeTracked {
		t.Fatalf("features %v", v2.Features())
	}
	if seq, _ := v2.Seq(); seq != 7 {
		t.Fatalf("seq not preserved: %d", seq)
	}
	if buf, _ := v2.RetransmitBuffer(); !buf.IsZero() {
		t.Fatalf("new extension not zeroed: %v", buf)
	}
	if !bytes.Equal(v2.Payload(), payload) {
		t.Fatal("payload not preserved")
	}
	if v2.Experiment() != h.Experiment {
		t.Fatal("experiment not preserved")
	}

	// Downgrade back: drop reliability, keep age.
	v3, err := v2.Deactivate(3, FeatReliable)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Features() != FeatSequenced|FeatAgeTracked {
		t.Fatalf("features after deactivate: %v", v3.Features())
	}
	if seq, _ := v3.Seq(); seq != 7 {
		t.Fatal("seq lost in deactivate")
	}
	if !bytes.Equal(v3.Payload(), payload) {
		t.Fatal("payload lost in deactivate")
	}
}

func TestViewReshapeQuick(t *testing.T) {
	f := func(h Header, payload []byte, want Features, newID uint8) bool {
		h = canonHeader(h)
		want &= AllFeatures
		newID %= ControlBase
		enc, err := h.AppendTo(nil)
		if err != nil {
			return false
		}
		v := View(append(enc, payload...))
		// A dirty, recycled destination: added fields must still read zero.
		out, err := v.ReshapeInto(bytes.Repeat([]byte{0xA5}, 256)[:0], newID, want)
		if err != nil {
			t.Logf("reshape: %v", err)
			return false
		}
		// Reshape equals decode → re-encode under the new feature set:
		// surviving fields keep their values, added ones are zero
		// (canonHeader left the fields of h's inactive features zero).
		re := h
		re.ConfigID, re.Features = newID, want
		if reEnc := mustEncode(t, re, payload); !bytes.Equal(out, reEnc) {
			t.Logf("reshape %v -> %v:\n got  %x\n want %x", h.Features, want, out, reEnc)
			return false
		}
		// Reshaping must not mutate the original packet.
		var orig Header
		if _, err := orig.DecodeFromBytes(v); err != nil {
			return false
		}
		return orig.Features == h.Features
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

func TestViewRejectsControlReshape(t *testing.T) {
	h := Header{ConfigID: ConfigNAK}
	v := mustEncode(t, h, nil)
	if _, err := v.Activate(1, FeatSequenced); err == nil {
		t.Fatal("control packets must not be reshaped")
	}
	h2 := Header{ConfigID: 1}
	v2 := mustEncode(t, h2, nil)
	if _, err := v2.Activate(ConfigNAK, FeatSequenced); err == nil {
		t.Fatal("reshape into control config ID must fail")
	}
}

func TestViewCloneIsIndependent(t *testing.T) {
	h := Header{ConfigID: 1, Features: FeatSequenced}
	v := mustEncode(t, h, []byte("x"))
	c := v.Clone()
	if err := c.SetSeq(123); err != nil {
		t.Fatal(err)
	}
	if seq, _ := v.Seq(); seq != 0 {
		t.Fatal("clone mutation affected original")
	}
}
