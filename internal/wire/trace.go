package wire

// In-band per-hop tracing (FeatTraced). The 40-byte extension carries a
// trace ID, a sampling decision, and a small ring of per-hop timestamps:
//
//	0         4     5     6     7     8                                  40
//	+---------+-----+-----+-----+-----+----------+----------+-----+------+
//	| TraceID |Flags|HopCt|OrigC| rsvd| hop slot | hop slot | ... (×4)   |
//	+---------+-----+-----+-----+-----+----------+----------+-----+------+
//
// Each 8-byte hop slot packs a hop ID in the top byte and a 56-bit
// timestamp (nanoseconds, truncated) in the low bytes. Stamps within one
// message's flight are close together, so deltas survive the truncation
// (mod 2^56 ≈ 2.28 years); internal/tracespan rebuilds absolute times
// relative to the delivery stamp. Slots are a ring: the slot written is
// HopCount mod TraceHopSlots, so a packet retransmitted many times keeps
// its most recent stamps and HopCount records how many were lost.
//
// A zeroed extension — exactly what ReshapeInto leaves when a network
// element adds FeatTraced — has the sampled flag clear and is inert: no
// element stamps it and no collector records it. This is what lets
// reshaping compose: adding or stripping the feature is an ordinary
// config rewrite, and only an element that deliberately sets the sampled
// flag turns the trace on.

// TraceHopSlots is the number of hop-stamp slots in the trace extension.
const TraceHopSlots = 4

// TraceSampledFlag marks the trace as sampled: elements stamp hops and the
// receiver's collector records spans only when it is set.
const TraceSampledFlag uint8 = 1 << 0

// TraceStampMask masks a hop stamp to its 56 wire bits.
const TraceStampMask uint64 = 1<<56 - 1

// Well-known hop IDs. IDs with TraceHopReshapeBit set are reshape stamps
// and carry the post-reshape config ID in the low seven bits; the rest
// identify the element class that stamped.
const (
	// TraceHopTx is stamped by the sender at encapsulation.
	TraceHopTx uint8 = 0x01
	// TraceHopRelay is stamped by a relay or buffer node that forwards
	// without reshaping.
	TraceHopRelay uint8 = 0x02
	// TraceHopRx names the receiver's delivery stamp. It never appears in
	// the on-wire ring (the receiver must not mutate a frame that may
	// alias a retransmission stash); internal/tracespan appends it
	// logically from the delivery time.
	TraceHopRx uint8 = 0x03
	// TraceHopNet is stamped by a generic network element (a p4sim
	// match-action stage or netsim hop).
	TraceHopNet uint8 = 0x04
	// TraceHopRetransmit is stamped on the stashed copy each time a NAK is
	// served, so the gap between the reshape stamp and this stamp is the
	// packet's stash residency.
	TraceHopRetransmit uint8 = 0x05
	// TraceHopReshapeBit marks a reshape stamp; the low seven bits carry
	// the new config ID.
	TraceHopReshapeBit uint8 = 0x80
)

// TraceReshapeHop returns the hop ID recorded by a reshape to newConfig.
func TraceReshapeHop(newConfig uint8) uint8 { return TraceHopReshapeBit | newConfig&0x7F }

// TraceHopConfig returns the post-reshape config ID carried by a reshape
// hop stamp, or false if h is not a reshape stamp.
func TraceHopConfig(h uint8) (uint8, bool) {
	if h&TraceHopReshapeBit == 0 {
		return 0, false
	}
	return h &^ TraceHopReshapeBit, true
}

// TraceHopName returns the short label for a hop ID, shared by the sim
// packet tap, flight-recorder dumps, and tracespan span names. Reshape
// stamps all map to "reshape"; use TraceHopConfig for the config ID.
func TraceHopName(h uint8) string {
	if h&TraceHopReshapeBit != 0 {
		return "reshape"
	}
	switch h {
	case TraceHopTx:
		return "tx"
	case TraceHopRelay:
		return "relay"
	case TraceHopRx:
		return "rx"
	case TraceHopNet:
		return "net"
	case TraceHopRetransmit:
		return "rtx"
	}
	return "hop"
}

// TraceHop is one slot of the per-hop timestamp ring: which element class
// stamped, and when (56-bit truncated nanoseconds).
type TraceHop struct {
	Hop   uint8
	Stamp uint64
}

// TraceExt is the FeatTraced extension: trace identity, the sampling
// decision, the config ID the message was encapsulated with, and the
// per-hop timestamp ring.
type TraceExt struct {
	TraceID      uint32
	Flags        uint8
	HopCount     uint8
	OriginConfig uint8
	Hops         [TraceHopSlots]TraceHop
}

// Sampled reports whether the sampling decision bit is set.
func (t TraceExt) Sampled() bool { return t.Flags&TraceSampledFlag != 0 }

// Byte offsets within the trace extension of the two fields the datapath
// touches without decoding the whole ring.
const (
	traceFlagsOff    = 4
	traceHopCountOff = 5
)

// hopSlot returns ring slot i of the extension area b.
func hopSlot(b []byte, i int) []byte { return b[8+8*i : 16+8*i] }

func (h TraceHop) put(b []byte) { be.PutUint64(b, uint64(h.Hop)<<56|h.Stamp&TraceStampMask) }

func traceHopFromBytes(b []byte) TraceHop {
	s := be.Uint64(b)
	return TraceHop{Hop: uint8(s >> 56), Stamp: s & TraceStampMask}
}

// put encodes t into the 40-byte extension area b.
func (t TraceExt) put(b []byte) {
	be.PutUint32(b[0:4], t.TraceID)
	b[traceFlagsOff] = t.Flags
	b[traceHopCountOff] = t.HopCount
	b[6] = t.OriginConfig
	b[7] = 0
	for i, h := range t.Hops {
		h.put(hopSlot(b, i))
	}
}

// traceExtFromBytes decodes the 40-byte extension area.
func traceExtFromBytes(b []byte) TraceExt {
	t := TraceExt{
		TraceID:      be.Uint32(b[0:4]),
		Flags:        b[traceFlagsOff],
		HopCount:     b[traceHopCountOff],
		OriginConfig: b[6],
	}
	for i := range t.Hops {
		t.Hops[i] = traceHopFromBytes(hopSlot(b, i))
	}
	return t
}

// traceExt returns the raw trace extension bytes, or nil if FeatTraced is
// not active or the buffer is too short to be a data packet (engines probe
// stash entries without a prior Check). It allocates nothing.
func (v View) traceExt() []byte {
	if len(v) < CoreHeaderLen {
		return nil
	}
	start, end, err := v.Features().extRange(FeatTraced)
	if err != nil || len(v) < end {
		return nil
	}
	return v[start:end]
}

// Trace decodes the FeatTraced extension.
func (v View) Trace() (TraceExt, error) {
	ext := v.traceExt()
	if ext == nil {
		return TraceExt{}, ErrMissingFeature
	}
	return traceExtFromBytes(ext), nil
}

// SetTrace writes the whole FeatTraced extension.
func (v View) SetTrace(t TraceExt) error {
	ext := v.traceExt()
	if ext == nil {
		return ErrMissingFeature
	}
	t.put(ext)
	return nil
}

// TraceSampled reports whether the packet carries a sampled trace. It is
// the datapath fast check: false for untraced and sampled-out packets,
// with no allocation and no atomics.
func (v View) TraceSampled() bool {
	ext := v.traceExt()
	return ext != nil && ext[traceFlagsOff]&TraceSampledFlag != 0
}

// AppendHopStamp records one hop stamp in place: slot HopCount mod
// TraceHopSlots is overwritten and HopCount incremented (saturating at
// 255). It allocates nothing; callers gate on TraceSampled.
func (v View) AppendHopStamp(hop uint8, nowNanos int64) error {
	ext := v.traceExt()
	if ext == nil {
		return ErrMissingFeature
	}
	n := ext[traceHopCountOff]
	TraceHop{Hop: hop, Stamp: uint64(nowNanos)}.put(hopSlot(ext, int(n)%TraceHopSlots))
	if n < 255 {
		ext[traceHopCountOff] = n + 1
	}
	return nil
}
