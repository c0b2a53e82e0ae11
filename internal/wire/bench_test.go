package wire_test

import (
	"testing"

	"repro/internal/wire"
)

// BenchmarkWireEncode measures the steady-state header encode path: the
// per-packet cost a userspace DTN pays to serialize a WAN-mode header into a
// reused buffer. The companion allocation-regression tests in alloc_test.go
// pin this path at 0 allocs/op.
func BenchmarkWireEncode(b *testing.B) {
	h := wire.Header{
		ConfigID:   1,
		Features:   wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked | wire.FeatTimely | wire.FeatTimestamped,
		Experiment: wire.NewExperimentID(7, 1),
	}
	h.Seq.Seq = 42
	h.Retransmit.Buffer = wire.AddrFrom(10, 0, 0, 1, 7000)
	buf := make([]byte, 0, 128)
	b.SetBytes(int64(h.WireSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = h.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode measures the matching decode path.
func BenchmarkWireDecode(b *testing.B) {
	h := wire.Header{
		ConfigID:   1,
		Features:   wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked | wire.FeatTimely | wire.FeatTimestamped,
		Experiment: wire.NewExperimentID(7, 1),
	}
	enc, err := h.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	var got wire.Header
	for i := 0; i < b.N; i++ {
		if _, err := got.DecodeFromBytes(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireReshape measures the mode-change operation (the header
// rewrite an on-path element performs when upgrading a packet's mode).
func BenchmarkWireReshape(b *testing.B) {
	h := wire.Header{ConfigID: 0, Experiment: wire.NewExperimentID(7, 1)}
	enc, err := h.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	enc = append(enc, make([]byte, 1024)...)
	v := wire.View(enc)
	want := wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked | wire.FeatTimely | wire.FeatTimestamped
	// The relay reshapes into a buffer it already holds (ReshapeInto), not
	// through the allocating Reshape wrapper; time that path and hold it to
	// the zero allocations the relay depends on.
	extLen, _ := want.ExtLen()
	dst := make([]byte, 0, len(enc)+extLen)
	reshape := func() {
		if _, err := v.ReshapeInto(dst, 1, want); err != nil {
			b.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, reshape); avg != 0 {
		b.Fatalf("ReshapeInto a reused destination allocates %.2f times per op, want 0", avg)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reshape()
	}
}
