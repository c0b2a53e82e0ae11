package wire

import (
	"bytes"
	"fmt"
)

// Recipe is a mode change compiled for one pair of feature sets:
// ReshapeInto from the incoming set to the outgoing one, then a fixed stamp
// of the new header's fields. It holds the new header with every constant
// field stamped, the runs of bytes kept from the incoming header, and where
// the three fields stamped per packet sit — a P4 element's action data.
// Applying it is one template copy, a few small copies and patches, and one
// payload copy.
type Recipe struct {
	// hdr is the output header for an all-zero incoming header, stamped at
	// seq 0 and now 0.
	hdr   []byte
	inLen int // incoming header length
	carry []carried
	// Offsets in hdr of the fields stamped per packet, 0 where the stamp
	// leaves the field alone. dl is the deadline as stamped at now 0.
	seq, deadline, ts int
	dl                DeadlineExt
}

// carried is a run of n incoming header bytes the output keeps.
type carried struct{ from, to, n int }

// CompileReshape compiles ReshapeInto(…, newConfigID, out) on packets whose
// feature set is in, followed by stamp, into a Recipe. It runs stamp on
// probe headers to learn what stamp writes. So stamp must be deterministic,
// and must leave each header byte either constant or equal to an incoming
// byte, with three exceptions. It may set the sequence number to seq when
// seq > 0, the deadline to now plus a constant, and an origin timestamp that
// reads zero to now. CompileReshape fails where ReshapeInto would, and where
// the compiled recipe does not reproduce ReshapeInto and stamp on its
// probes.
func CompileReshape(in Features, newConfigID uint8, out Features, stamp func(up View, seq uint64, now int64)) (*Recipe, error) {
	inExt, err := in.ExtLen()
	if err != nil {
		return nil, err
	}
	inLen := CoreHeaderLen + inExt
	// probe runs the reference on an incoming header of feature set in whose
	// bytes past the feature bits are fill(offset).
	probe := func(fill func(int) byte, seq uint64, now int64) (View, View, error) {
		v := make(View, inLen)
		v.setFeatures(in)
		for i := 4; i < inLen; i++ {
			v[i] = fill(i)
		}
		up, err := v.ReshapeInto(nil, newConfigID, out)
		if err == nil {
			stamp(up, seq, now)
		}
		return v, up, err
	}
	zero := func(int) byte { return 0 }
	// A header is at most 132 bytes, so every probe byte can hold its own
	// offset: an output byte that differs from the template is carried, and
	// its value says from where.
	own := func(i int) byte { return byte(i) }
	_, hdr, err := probe(zero, 0, 0)
	if err != nil {
		return nil, err
	}
	r := &Recipe{hdr: hdr, inLen: inLen}
	_, marked, _ := probe(own, 0, 0)
	for i := range hdr {
		if marked[i] == hdr[i] {
			continue
		}
		from := int(marked[i])
		if k := len(r.carry) - 1; k >= 0 && r.carry[k].to+r.carry[k].n == i && r.carry[k].from+r.carry[k].n == from {
			r.carry[k].n++
		} else {
			r.carry = append(r.carry, carried{from: from, to: i, n: 1})
		}
	}
	// A field stamped from seq or now differs between the template and a
	// probe at other values.
	const probeSeq, probeNow = 0x0102030405060708, 0x1112131415161718
	_, moved, _ := probe(zero, probeSeq, probeNow)
	stamped := func(f Features) int {
		start, end, err := out.extRange(f)
		if err != nil || bytes.Equal(moved[start:end], hdr[start:end]) {
			return 0
		}
		return start
	}
	r.seq, r.deadline, r.ts = stamped(FeatSequenced), stamped(FeatTimely), stamped(FeatTimestamped)
	if r.deadline != 0 {
		r.dl = deadlineExtFromBytes(hdr[r.deadline:])
	}
	for _, fill := range []func(int) byte{zero, own} {
		v, want, _ := probe(fill, probeSeq, probeNow)
		if !bytes.Equal(r.Apply(nil, v, probeSeq, probeNow), want) {
			return nil, fmt.Errorf("wire: the stamp from %v to %v does not compile to a recipe", in, out)
		}
	}
	return r, nil
}

// Apply writes the recipe's output for packet v, with sequence number seq
// at time now, into dst's storage (grown, as ReshapeInto grows it, when too
// small) and returns it: byte for byte what ReshapeInto and the compiled
// stamp write. v must have passed Check and carry the incoming feature set
// the recipe was compiled for; Apply checks neither. dst must not alias v.
func (r *Recipe) Apply(dst []byte, v View, seq uint64, now int64) View {
	n := len(r.hdr) + len(v) - r.inLen
	var out View
	if cap(dst) >= n {
		out = View(dst[:n])
	} else {
		out = make(View, n)
	}
	copy(out, r.hdr)
	for _, c := range r.carry {
		copy(out[c.to:c.to+c.n], v[c.from:])
	}
	if r.seq != 0 && seq > 0 {
		SeqExt{Seq: seq}.put(out[r.seq:])
	}
	if r.deadline != 0 {
		d := r.dl
		d.DeadlineNanos += uint64(now)
		d.put(out[r.deadline:])
	}
	if r.ts != 0 && timestampExtFromBytes(out[r.ts:]).OriginNanos == 0 {
		TimestampExt{OriginNanos: uint64(now)}.put(out[r.ts:])
	}
	copy(out[len(r.hdr):], v[r.inLen:])
	return out
}
