package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// be is the protocol byte order. DMTP fields are big-endian, as is
// conventional for network protocols and convenient for P4 pipelines.
var be = binary.BigEndian

// Addr is a protocol endpoint address: an IPv4 address and a port. DMTP
// extension fields that name on-path resources (retransmission buffers,
// deadline notification sinks, back-pressure sinks) carry an Addr.
// Addr is comparable and can be used as a map key.
type Addr struct {
	IP   [4]byte
	Port uint16
}

// AddrFrom builds an Addr from the four IPv4 octets and a port.
func AddrFrom(a, b, c, d byte, port uint16) Addr {
	return Addr{IP: [4]byte{a, b, c, d}, Port: port}
}

// IsZero reports whether a is the zero address, used to mean "unset".
func (a Addr) IsZero() bool { return a == Addr{} }

// String renders a as "ip:port".
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d", a.IP[0], a.IP[1], a.IP[2], a.IP[3], a.Port)
}

func (a Addr) put(b []byte) {
	copy(b[:4], a.IP[:])
	be.PutUint16(b[4:6], a.Port)
}

func addrFromBytes(b []byte) Addr {
	var a Addr
	copy(a.IP[:], b[:4])
	a.Port = be.Uint16(b[4:6])
	return a
}

// ExperimentID is the 32-bit experiment identifier from the core header.
// By convention the top 24 bits identify the experiment and the low 8 bits
// identify the instrument slice (Req 8: detectors may be partitioned for
// different simultaneous experiments).
type ExperimentID uint32

// NewExperimentID combines a 24-bit experiment number and an 8-bit slice.
func NewExperimentID(experiment uint32, slice uint8) ExperimentID {
	return ExperimentID(experiment<<8 | uint32(slice))
}

// Experiment returns the 24-bit experiment number.
func (e ExperimentID) Experiment() uint32 { return uint32(e) >> 8 }

// Slice returns the 8-bit instrument-slice number.
func (e ExperimentID) Slice() uint8 { return uint8(e) }

// String renders e as "exp N/slice S".
func (e ExperimentID) String() string {
	return fmt.Sprintf("exp %d/slice %d", e.Experiment(), e.Slice())
}

// SeqExt is the FeatSequenced extension: a per-stream sequence number added
// by the network element at the entrance of a loss-recoverable segment.
type SeqExt struct {
	Seq uint64
}

func (e SeqExt) put(b []byte)         { be.PutUint64(b, e.Seq) }
func seqExtFromBytes(b []byte) SeqExt { return SeqExt{Seq: be.Uint64(b)} }

// RetransmitExt is the FeatReliable extension: the nearest upstream
// retransmission buffer from which missing packets may be requested.
type RetransmitExt struct {
	Buffer Addr
}

func (e RetransmitExt) put(b []byte)                { e.Buffer.put(b) }
func retransmitExtFromBytes(b []byte) RetransmitExt { return RetransmitExt{Buffer: addrFromBytes(b)} }

// DeadlineExt is the FeatTimely extension: the absolute delivery deadline
// (nanoseconds on the deployment's time base) and where to send a
// notification if the deadline is exceeded.
type DeadlineExt struct {
	DeadlineNanos uint64
	Notify        Addr
}

func (e DeadlineExt) put(b []byte) {
	be.PutUint64(b[0:8], e.DeadlineNanos)
	e.Notify.put(b[8:14])
}

func deadlineExtFromBytes(b []byte) DeadlineExt {
	return DeadlineExt{DeadlineNanos: be.Uint64(b[0:8]), Notify: addrFromBytes(b[8:14])}
}

// Age-extension flag bits.
const (
	// AgedFlag is set by a network element once the accumulated age
	// exceeds MaxAgeMicros (paper §5.4: "updates an 'aged' flag if a
	// maximum age threshold was exceeded by the time the packet reached
	// that network element").
	AgedFlag uint8 = 1 << 0
)

// AgeExt is the FeatAgeTracked extension: the accumulated age of the packet
// in microseconds, the maximum age budget, and status flags.
type AgeExt struct {
	AgeMicros    uint32
	MaxAgeMicros uint32
	Flags        uint8
}

// Aged reports whether the aged flag has been set.
func (a AgeExt) Aged() bool { return a.Flags&AgedFlag != 0 }

func (a AgeExt) put(b []byte) {
	be.PutUint32(b[0:4], a.AgeMicros)
	be.PutUint32(b[4:8], a.MaxAgeMicros)
	b[8] = a.Flags
}

func ageExtFromBytes(b []byte) AgeExt {
	return AgeExt{AgeMicros: be.Uint32(b[0:4]), MaxAgeMicros: be.Uint32(b[4:8]), Flags: b[8]}
}

// PaceExt is the FeatPaced extension: the pacing rate assigned to the
// sender, in megabits per second, and the permitted burst in kilobytes.
type PaceExt struct {
	RateMbps uint32
	BurstKB  uint32
}

func (e PaceExt) put(b []byte) {
	be.PutUint32(b[0:4], e.RateMbps)
	be.PutUint32(b[4:8], e.BurstKB)
}

func paceExtFromBytes(b []byte) PaceExt {
	return PaceExt{RateMbps: be.Uint32(b[0:4]), BurstKB: be.Uint32(b[4:8])}
}

// BackPressureExt is the FeatBackPressure extension: where on-path elements
// send back-pressure signals, and the current advisory level (0 = none,
// 255 = stop).
type BackPressureExt struct {
	Sink  Addr
	Level uint8
}

func (e BackPressureExt) put(b []byte) {
	e.Sink.put(b[0:6])
	b[6] = e.Level
}

func backPressureExtFromBytes(b []byte) BackPressureExt {
	return BackPressureExt{Sink: addrFromBytes(b[0:6]), Level: b[6]}
}

// DupExt is the FeatDuplicate extension: the pre-configured distribution
// group toward which on-path elements duplicate the stream, and a scope
// limiting how many duplication stages may act on it.
type DupExt struct {
	Group uint32
	Scope uint8
}

func (e DupExt) put(b []byte) {
	be.PutUint32(b[0:4], e.Group)
	b[4] = e.Scope
}

func dupExtFromBytes(b []byte) DupExt { return DupExt{Group: be.Uint32(b[0:4]), Scope: b[4]} }

// CipherExt is the FeatEncrypted extension: key epoch and per-packet nonce
// for the (external, Req 5) payload cipher.
type CipherExt struct {
	KeyEpoch uint32
	Nonce    uint32
}

func (e CipherExt) put(b []byte) {
	be.PutUint32(b[0:4], e.KeyEpoch)
	be.PutUint32(b[4:8], e.Nonce)
}

func cipherExtFromBytes(b []byte) CipherExt {
	return CipherExt{KeyEpoch: be.Uint32(b[0:4]), Nonce: be.Uint32(b[4:8])}
}

// TimestampExt is the FeatTimestamped extension: the origin timestamp of
// the datagram in nanoseconds on the deployment's time base.
type TimestampExt struct {
	OriginNanos uint64
}

func (e TimestampExt) put(b []byte)               { be.PutUint64(b, e.OriginNanos) }
func timestampExtFromBytes(b []byte) TimestampExt { return TimestampExt{OriginNanos: be.Uint64(b)} }

// Header is the decoded form of a DMTP data-packet header: the core header
// plus whichever extension fields the feature bits activate. The zero value
// is a valid mode-0 header (no features).
type Header struct {
	ConfigID   uint8
	Features   Features
	Experiment ExperimentID

	Seq          SeqExt
	Retransmit   RetransmitExt
	Deadline     DeadlineExt
	Age          AgeExt
	Pace         PaceExt
	BackPressure BackPressureExt
	Dup          DupExt
	Cipher       CipherExt
	Timestamp    TimestampExt
	Trace        TraceExt
}

// WireSize returns the encoded size of the header in bytes.
func (h *Header) WireSize() int {
	// A set with undefined bits counts no extensions; AppendTo rejects it.
	n, _ := h.Features.ExtLen()
	return CoreHeaderLen + n
}

// IsControl reports whether the header's ConfigID marks a control packet.
func (h *Header) IsControl() bool { return h.ConfigID >= ControlBase }

// zeroExt is a zeroed field of the largest size: AppendTo appends each
// field zeroed, so reserved bytes are zero on the wire, and its codec then
// writes only the defined bytes.
var zeroExt = make([]byte, slices.Max(extSizes[:]))

// AppendTo appends the encoded header to b and returns the extended slice.
// It returns an error if a data packet's feature set contains undefined
// bits. For control packets (ConfigID ≥ ControlBase) the 24 configuration
// bits are opaque control data and are emitted verbatim, with no
// extensions.
func (h *Header) AppendTo(b []byte) ([]byte, error) {
	if !h.IsControl() && !h.Features.Valid() {
		return nil, fmt.Errorf("%w: %#x", ErrUnknownFeature, uint32(h.Features&^AllFeatures))
	}
	var core [CoreHeaderLen]byte
	core[0] = h.ConfigID
	core[1] = byte(h.Features >> 16)
	core[2] = byte(h.Features >> 8)
	core[3] = byte(h.Features)
	be.PutUint32(core[4:8], uint32(h.Experiment))
	b = append(b, core[:]...)
	if h.IsControl() {
		return b, nil
	}

	for i := 0; i < featureCount; i++ {
		bit := Features(1) << i
		if h.Features&bit == 0 {
			continue
		}
		b = append(b, zeroExt[:extSizes[i]]...)
		ext := b[len(b)-extSizes[i]:]
		switch bit {
		case FeatSequenced:
			h.Seq.put(ext)
		case FeatReliable:
			h.Retransmit.put(ext)
		case FeatTimely:
			h.Deadline.put(ext)
		case FeatAgeTracked:
			h.Age.put(ext)
		case FeatPaced:
			h.Pace.put(ext)
		case FeatBackPressure:
			h.BackPressure.put(ext)
		case FeatDuplicate:
			h.Dup.put(ext)
		case FeatEncrypted:
			h.Cipher.put(ext)
		case FeatTimestamped:
			h.Timestamp.put(ext)
		case FeatTraced:
			h.Trace.put(ext)
		}
	}
	return b, nil
}

// DecodeFromBytes parses a DMTP header from the start of b, filling in h.
// It returns the number of bytes consumed (the header length); the payload
// is b[n:]. Fields of inactive features are zeroed. b is not retained.
func (h *Header) DecodeFromBytes(b []byte) (n int, err error) {
	if len(b) < CoreHeaderLen {
		return 0, fmt.Errorf("%w: %d bytes, need %d for core header", ErrTruncated, len(b), CoreHeaderLen)
	}
	*h = Header{}
	h.ConfigID = b[0]
	h.Features = Features(b[1])<<16 | Features(b[2])<<8 | Features(b[3])
	h.Experiment = ExperimentID(be.Uint32(b[4:8]))
	if h.IsControl() {
		// Control packets carry no feature extensions; the config bits
		// are control data interpreted by the control codecs.
		return CoreHeaderLen, nil
	}
	if !h.Features.Valid() {
		return 0, fmt.Errorf("%w: %#x", ErrUnknownFeature, uint32(h.Features&^AllFeatures))
	}
	off := CoreHeaderLen
	for i := 0; i < featureCount; i++ {
		bit := Features(1) << i
		if h.Features&bit == 0 {
			continue
		}
		sz := extSizes[i]
		if len(b) < off+sz {
			return 0, fmt.Errorf("%w: %d bytes, need %d for %v extension", ErrTruncated, len(b), off+sz, bit)
		}
		ext := b[off : off+sz]
		switch bit {
		case FeatSequenced:
			h.Seq = seqExtFromBytes(ext)
		case FeatReliable:
			h.Retransmit = retransmitExtFromBytes(ext)
		case FeatTimely:
			h.Deadline = deadlineExtFromBytes(ext)
		case FeatAgeTracked:
			h.Age = ageExtFromBytes(ext)
		case FeatPaced:
			h.Pace = paceExtFromBytes(ext)
		case FeatBackPressure:
			h.BackPressure = backPressureExtFromBytes(ext)
		case FeatDuplicate:
			h.Dup = dupExtFromBytes(ext)
		case FeatEncrypted:
			h.Cipher = cipherExtFromBytes(ext)
		case FeatTimestamped:
			h.Timestamp = timestampExtFromBytes(ext)
		case FeatTraced:
			h.Trace = traceExtFromBytes(ext)
		}
		off += sz
	}
	return off, nil
}

// String renders the header compactly for logs and tests.
func (h *Header) String() string {
	if h.IsControl() {
		return fmt.Sprintf("DMTP ctrl %#02x %v", h.ConfigID, h.Experiment)
	}
	return fmt.Sprintf("DMTP mode %d [%v] %v", h.ConfigID, h.Features, h.Experiment)
}
