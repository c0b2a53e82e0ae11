package wire

import "fmt"

// View is a zero-copy window onto an encoded DMTP packet. It supports the
// in-place, header-only reads and writes that an on-path programmable
// network element performs (paper §5: "conservative, header-based
// processing, using features that existing P4 hardware supports well").
// Operations that change the header length (activating or deactivating
// features, i.e. changing mode) return a new byte slice; everything else
// mutates the underlying buffer directly.
//
// Every extension field has a getter and a setter here, and they are the
// only checked in-place route to it: a field's offset comes from the
// layouts table (see Layout) and its bytes go through the same
// put/…FromBytes codec Header uses, so no caller computes an offset or lays
// out extension bytes itself. Each accessor refuses a control packet, a
// feature set with undefined bits, an inactive feature and a buffer too
// short to hold the field. A caller that has already checked the packet
// can read its fields through the packet's Layout instead, which takes its
// offsets from the same table.
type View []byte

// Check validates that v holds at least a complete DMTP header and returns
// the header length. It is cheap and should be called once at pipeline
// ingress before using the other accessors.
func (v View) Check() (headerLen int, err error) {
	if len(v) < CoreHeaderLen {
		return 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(v))
	}
	if v.IsControl() {
		return CoreHeaderLen, nil
	}
	extLen, err := v.Features().ExtLen()
	if err != nil {
		return 0, err
	}
	if len(v) < CoreHeaderLen+extLen {
		return 0, fmt.Errorf("%w: %d bytes, need %d for extensions", ErrTruncated, len(v), CoreHeaderLen+extLen)
	}
	return CoreHeaderLen + extLen, nil
}

// ConfigID returns the configuration identifier (first header byte).
func (v View) ConfigID() uint8 { return v[0] }

// SetConfigID overwrites the configuration identifier in place.
func (v View) SetConfigID(id uint8) { v[0] = id }

// IsControl reports whether the packet is a control packet.
func (v View) IsControl() bool { return v[0] >= ControlBase }

// Features returns the 24 configuration bits as a feature set.
func (v View) Features() Features {
	return Features(v[1])<<16 | Features(v[2])<<8 | Features(v[3])
}

func (v View) setFeatures(f Features) {
	v[1] = byte(f >> 16)
	v[2] = byte(f >> 8)
	v[3] = byte(f)
}

// Experiment returns the experiment identifier.
func (v View) Experiment() ExperimentID { return ExperimentID(be.Uint32(v[4:8])) }

// SetExperiment overwrites the experiment identifier in place.
func (v View) SetExperiment(e ExperimentID) { be.PutUint32(v[4:8], uint32(e)) }

// HeaderLen returns the total header length implied by the feature bits.
// The view must have passed Check.
func (v View) HeaderLen() int {
	if v.IsControl() {
		return CoreHeaderLen
	}
	return v.Layout().HeaderLen()
}

// Layout returns the field layout of the data packet's feature set. The
// view must be a data packet that has passed Check.
func (v View) Layout() *Layout { return &layouts[v.Features()&AllFeatures] }

// Payload returns the bytes after the header. The view must have passed Check.
func (v View) Payload() []byte { return v[v.HeaderLen():] }

// ext returns the extension field bytes for a single active feature.
func (v View) ext(feat Features) ([]byte, error) {
	if v.IsControl() {
		return nil, ErrControlPacket
	}
	start, end, err := v.Features().extRange(feat)
	if err != nil {
		return nil, err
	}
	if len(v) < end {
		return nil, fmt.Errorf("%w: extension %v at %d..%d, packet %d bytes", ErrTruncated, feat, start, end, len(v))
	}
	return v[start:end], nil
}

// field decodes the extension field of one active feature with its codec.
func field[T any](v View, feat Features, fromBytes func([]byte) T) (T, error) {
	ext, err := v.ext(feat)
	if err != nil {
		var zero T
		return zero, err
	}
	return fromBytes(ext), nil
}

// setField encodes e over the extension field of one active feature.
func setField[T interface{ put([]byte) }](v View, feat Features, e T) error {
	ext, err := v.ext(feat)
	if err != nil {
		return err
	}
	e.put(ext)
	return nil
}

// Seq returns the sequence number; the packet must carry FeatSequenced.
func (v View) Seq() (uint64, error) {
	e, err := field(v, FeatSequenced, seqExtFromBytes)
	return e.Seq, err
}

// SetSeq overwrites the sequence number in place.
func (v View) SetSeq(seq uint64) error { return setField(v, FeatSequenced, SeqExt{Seq: seq}) }

// RetransmitBuffer returns the nearest-upstream retransmission buffer address.
func (v View) RetransmitBuffer() (Addr, error) {
	e, err := field(v, FeatReliable, retransmitExtFromBytes)
	return e.Buffer, err
}

// SetRetransmitBuffer repoints the retransmission buffer in place. This is
// the "more recent retransmission buffer" rewrite from paper §1/§5.1: as a
// closer buffer becomes available, elements update the header so receivers
// request retransmission from the shorter-RTT source.
func (v View) SetRetransmitBuffer(a Addr) error {
	return setField(v, FeatReliable, RetransmitExt{Buffer: a})
}

// Deadline returns the delivery deadline and notification address.
func (v View) Deadline() (deadlineNanos uint64, notify Addr, err error) {
	e, err := field(v, FeatTimely, deadlineExtFromBytes)
	return e.DeadlineNanos, e.Notify, err
}

// SetDeadline overwrites the deadline extension in place.
func (v View) SetDeadline(deadlineNanos uint64, notify Addr) error {
	return setField(v, FeatTimely, DeadlineExt{DeadlineNanos: deadlineNanos, Notify: notify})
}

// Age returns the age extension.
func (v View) Age() (AgeExt, error) { return field(v, FeatAgeTracked, ageExtFromBytes) }

// AddAge accumulates deltaMicros onto the age field, saturating instead of
// wrapping, and sets the aged flag if the accumulated age meets or exceeds
// the maximum age. It returns the post-update aged status. This is the
// exact per-element operation from paper §5.4.
func (v View) AddAge(deltaMicros uint32) (aged bool, err error) {
	a, err := v.Age()
	if err != nil {
		return false, err
	}
	if a.AgeMicros > ^uint32(0)-deltaMicros {
		a.AgeMicros = ^uint32(0)
	} else {
		a.AgeMicros += deltaMicros
	}
	if a.MaxAgeMicros != 0 && a.AgeMicros >= a.MaxAgeMicros {
		a.Flags |= AgedFlag
	}
	return a.Aged(), setField(v, FeatAgeTracked, a)
}

// SetMaxAge overwrites the maximum-age budget in place.
func (v View) SetMaxAge(maxMicros uint32) error {
	a, err := v.Age()
	if err != nil {
		return err
	}
	a.MaxAgeMicros = maxMicros
	return setField(v, FeatAgeTracked, a)
}

// Pace returns the pacing extension.
func (v View) Pace() (PaceExt, error) { return field(v, FeatPaced, paceExtFromBytes) }

// SetPace overwrites the pacing extension in place.
func (v View) SetPace(p PaceExt) error { return setField(v, FeatPaced, p) }

// BackPressure returns the back-pressure extension.
func (v View) BackPressure() (BackPressureExt, error) {
	return field(v, FeatBackPressure, backPressureExtFromBytes)
}

// SetBackPressure overwrites the back-pressure extension in place.
func (v View) SetBackPressure(bp BackPressureExt) error { return setField(v, FeatBackPressure, bp) }

// SetBackPressureLevel overwrites the advisory back-pressure level in place.
func (v View) SetBackPressureLevel(level uint8) error {
	bp, err := v.BackPressure()
	if err != nil {
		return err
	}
	bp.Level = level
	return v.SetBackPressure(bp)
}

// Dup returns the duplication extension.
func (v View) Dup() (DupExt, error) { return field(v, FeatDuplicate, dupExtFromBytes) }

// SetDup overwrites the duplication extension in place.
func (v View) SetDup(d DupExt) error { return setField(v, FeatDuplicate, d) }

// SetDupScope overwrites the remaining duplication scope in place.
func (v View) SetDupScope(scope uint8) error {
	d, err := v.Dup()
	if err != nil {
		return err
	}
	d.Scope = scope
	return v.SetDup(d)
}

// Cipher returns the encryption extension.
func (v View) Cipher() (CipherExt, error) { return field(v, FeatEncrypted, cipherExtFromBytes) }

// SetCipher overwrites the encryption extension in place.
func (v View) SetCipher(c CipherExt) error { return setField(v, FeatEncrypted, c) }

// OriginTimestamp returns the origin timestamp in nanoseconds.
func (v View) OriginTimestamp() (uint64, error) {
	e, err := field(v, FeatTimestamped, timestampExtFromBytes)
	return e.OriginNanos, err
}

// SetOriginTimestamp overwrites the origin timestamp in place.
func (v View) SetOriginTimestamp(nanos uint64) error {
	return setField(v, FeatTimestamped, TimestampExt{OriginNanos: nanos})
}

// Activate returns a new packet with the given features additionally
// activated (their extension fields inserted, zero-valued, at the correct
// wire positions) and the ConfigID set to newConfigID. Features already
// active are preserved along with their values. This is the header
// operation a network element performs when switching the packet to a
// richer mode; on P4 hardware it corresponds to header add + deparse.
func (v View) Activate(newConfigID uint8, add Features) (View, error) {
	return v.ReshapeInto(nil, newConfigID, v.Features()|add)
}

// Deactivate returns a new packet with the given features removed and the
// ConfigID set to newConfigID.
func (v View) Deactivate(newConfigID uint8, remove Features) (View, error) {
	return v.ReshapeInto(nil, newConfigID, v.Features()&^remove)
}

// Reshape returns a new packet whose feature set is exactly want, copying
// values of features that remain active, zero-filling newly added ones, and
// setting the ConfigID. The payload is shared-copied into the new slice.
func (v View) Reshape(newConfigID uint8, want Features) (View, error) {
	return v.ReshapeInto(nil, newConfigID, want)
}

// ReshapeInto is Reshape writing into dst's storage: dst is truncated and
// grown (reusing its capacity where possible) to hold the reshaped packet.
// It is the zero-allocation mode-change path — with a dst of sufficient
// capacity, e.g. from a BufferPool, no heap allocation occurs. dst must not
// alias v.
func (v View) ReshapeInto(dst []byte, newConfigID uint8, want Features) (View, error) {
	if v.IsControl() {
		return nil, ErrControlPacket
	}
	if newConfigID >= ControlBase {
		return nil, fmt.Errorf("wire: config ID %#02x is in the control range", newConfigID)
	}
	oldLen, err := v.Check()
	if err != nil {
		return nil, err
	}
	have := v.Features()
	wantExtLen, err := want.ExtLen()
	if err != nil {
		return nil, err
	}
	outLen := CoreHeaderLen + wantExtLen + len(v) - oldLen
	var out View
	if cap(dst) >= outLen {
		out = View(dst[:outLen])
	} else {
		out = make(View, outLen)
	}
	copy(out[:4], v[:4]) // config id + bits, patched below
	copy(out[4:8], v[4:8])
	out.SetConfigID(newConfigID)
	out.setFeatures(want)
	// One pass over the fields in wire order: a surviving field is copied, a
	// newly activated one zeroed (it must read as zero even in a recycled
	// buffer), a dropped one skipped.
	src, ext := v[CoreHeaderLen:oldLen], out[CoreHeaderLen:CoreHeaderLen+wantExtLen]
	for i := 0; i < featureCount; i++ {
		bit, n := Features(1)<<i, extSizes[i]
		if want&bit != 0 {
			if have&bit != 0 {
				copy(ext[:n], src[:n])
			} else {
				clear(ext[:n])
			}
			ext = ext[n:]
		}
		if have&bit != 0 {
			src = src[n:]
		}
	}
	copy(out[CoreHeaderLen+wantExtLen:], v[oldLen:])
	return out, nil
}

// Clone returns an independent copy of the packet, used by in-network
// duplication.
func (v View) Clone() View {
	out := make(View, len(v))
	copy(out, v)
	return out
}
