package wire_test

import (
	"errors"
	"testing"

	"repro/internal/wire"
)

// TestCompileReshapeRefuses: a stamp the recipe cannot express, and a mode
// change ReshapeInto refuses, do not compile.
func TestCompileReshapeRefuses(t *testing.T) {
	const out = wire.FeatSequenced | wire.FeatPaced | wire.FeatTimestamped
	for _, tc := range []struct {
		name  string
		in    wire.Features
		cfg   uint8
		stamp func(up wire.View, seq uint64, now int64)
		want  error // nil: any error
	}{
		{"a field computed from now", 0, 1, func(up wire.View, _ uint64, now int64) {
			up.SetPace(wire.PaceExt{RateMbps: uint32(now)})
		}, nil},
		{"a field computed from an incoming one", wire.FeatPaced, 1, func(up wire.View, _ uint64, _ int64) {
			p, _ := up.Pace()
			p.RateMbps++
			up.SetPace(p)
		}, nil},
		{"a sequence number other than seq", 0, 1, func(up wire.View, seq uint64, _ int64) {
			up.SetSeq(seq + 1)
		}, nil},
		{"a control config ID", 0, wire.ControlBase, func(wire.View, uint64, int64) {}, nil},
		{"an undefined incoming feature bit", wire.AllFeatures + 1, 1, func(wire.View, uint64, int64) {}, wire.ErrUnknownFeature},
	} {
		_, err := wire.CompileReshape(tc.in, tc.cfg, out, tc.stamp)
		if err == nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v", tc.name, err)
		}
	}
}
