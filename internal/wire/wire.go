// Package wire implements the DMTP (DAQ Multi-modal Transport Protocol) wire
// format proposed in "Shape-shifting Elephants: Multi-modal Transport for
// Integrated Research Infrastructure" (HotNets '24), §5.2.
//
// A DMTP packet starts with an 8-byte core header:
//
//	0       1               4               8
//	+-------+---------------+---------------+
//	|ConfID | ConfigBits 24 | Experiment ID |
//	+-------+---------------+---------------+
//
// ConfID (the "configuration identifier") versions the interpretation of the
// 24 configuration bits; together they encode the transport's mode. The
// configuration bits carry the active feature flags so that on-path network
// elements can parse the packet without consulting a mode table. After the
// core header comes a sequence of fixed-size optional extension fields, in a
// fixed order determined by ascending feature-flag bit position, followed by
// the payload.
//
// ConfID values at and above ControlBase are reserved for control packets
// (NAKs, deadline-exceeded notifications, back-pressure signals, ACKs); for
// those, the configuration bits carry control-specific data instead of
// feature flags.
//
// The package follows the gopacket layering idioms: types decode with
// DecodeFromBytes (taking a zero-copy view where possible) and serialize
// with AppendTo. The View type additionally supports in-place header
// mutation, which is how the emulated programmable data plane
// (internal/p4sim) rewrites packets in flight without reserializing them.
package wire

import (
	"errors"
	"fmt"
	"math/bits"
)

// Protocol identification constants for the supported encapsulations
// (Req 1: DMTP runs directly over layer 2 as well as over IP).
const (
	// EtherTypeDMTP is the EtherType used when DMTP is framed directly in
	// an Ethernet frame. 0x88B5 is the IEEE "local experimental" EtherType.
	EtherTypeDMTP = 0x88B5
	// IPProtoDMTP is the IPv4 protocol number used when DMTP rides
	// directly on IP. 0xFD (253) is reserved for experimentation (RFC 3692).
	IPProtoDMTP = 0xFD
	// UDPPortDMTP is the well-known UDP port used when DMTP is tunnelled
	// in UDP (the deployment-pragmatic encapsulation for the live path).
	UDPPortDMTP = 0x44AC // 17580
)

// CoreHeaderLen is the length in bytes of the fixed DMTP core header.
const CoreHeaderLen = 8

// ControlBase is the first ConfigID value reserved for control packets.
const ControlBase = 0xF0

// ConfigID values reserved for control packets.
const (
	ConfigNAK              = 0xF0 // negative acknowledgement (retransmit request)
	ConfigDeadlineExceeded = 0xF1 // timeliness-violation notification
	ConfigBackPressure     = 0xF2 // back-pressure signal toward the source
	ConfigAck              = 0xF3 // optional positive acknowledgement
	ConfigResourceAdvert   = 0xF4 // in-network resource advertisement (§6)
)

// Errors returned by decoding and in-place mutation.
var (
	ErrTruncated        = errors.New("wire: packet truncated")
	ErrNotDMTP          = errors.New("wire: not a DMTP packet")
	ErrUnknownFeature   = errors.New("wire: unknown feature bit set")
	ErrMissingFeature   = errors.New("wire: feature not present in header")
	ErrControlPacket    = errors.New("wire: control packet has no feature extensions")
	ErrBadEncapsulation = errors.New("wire: unsupported encapsulation")
)

// Features is the set of transport features activated by the configuration
// bits of a data packet. Only the low 24 bits are representable on the wire.
type Features uint32

// Feature flags, in wire order: the extension fields of the active features
// appear after the core header in ascending bit-position order.
const (
	// FeatSequenced adds a 64-bit per-stream sequence number. Network
	// elements add this when a stream enters a loss-recoverable segment
	// (paper §5.4: "Network elements add a sequence number to
	// loss-recoverable streams").
	FeatSequenced Features = 1 << iota
	// FeatReliable marks the stream as loss-recoverable and names the
	// nearest upstream retransmission buffer from which missing packets
	// may be requested (paper §5.3: an explicit source where to request
	// the retransmission).
	FeatReliable
	// FeatTimely adds a delivery deadline and the address to notify when
	// the deadline is exceeded (paper §5.3 "timeliness mode").
	FeatTimely
	// FeatAgeTracked makes on-path elements accumulate the packet's age
	// and set an "aged" flag once a maximum age threshold is exceeded
	// (paper §5.4).
	FeatAgeTracked
	// FeatPaced carries the pacing rate the sender has been assigned.
	FeatPaced
	// FeatBackPressure names the address to which on-path elements relay
	// back-pressure signals on downstream congestion or loss (paper §5.1).
	FeatBackPressure
	// FeatDuplicate requests in-network stream duplication toward a
	// pre-configured distribution group (paper §5.1: "Streams can be
	// duplicated in the network to reach several downstream researchers").
	FeatDuplicate
	// FeatEncrypted indicates the payload is encrypted; the extension
	// names the key epoch and per-packet nonce (Req 5; the header itself
	// stays processable in-network).
	FeatEncrypted
	// FeatTimestamped carries the origin timestamp of the datagram, used
	// for end-to-end latency accounting.
	FeatTimestamped
	// FeatTraced carries an in-band distributed trace: a trace ID, a
	// sampling decision, and a small ring of per-hop timestamps stamped by
	// every element that touches the packet. Because tracing is a feature
	// like any other, network elements add or strip it with an ordinary
	// config rewrite (see trace.go).
	FeatTraced

	featureCount = iota
)

// AllFeatures is the mask of all defined feature bits.
const AllFeatures Features = 1<<featureCount - 1

// featureNames indexes feature bit position to a short name.
var featureNames = [featureCount]string{
	"seq", "rel", "timely", "age", "paced", "bp", "dup", "enc", "ts", "trace",
}

// extSizes indexes feature bit position to the byte size of its extension
// field. The sizes are fixed by the protocol (paper §5.2: "a variable number
// of fixed-size, optional fields (in a fixed order)").
var extSizes = [featureCount]int{
	8,  // FeatSequenced: uint64 sequence number
	8,  // FeatReliable: IPv4 (4) + port (2) + reserved (2)
	16, // FeatTimely: deadline ns (8) + notify IPv4 (4) + port (2) + reserved (2)
	12, // FeatAgeTracked: age µs (4) + max age µs (4) + flags (1) + reserved (3)
	8,  // FeatPaced: rate Mbps (4) + burst KB (4)
	8,  // FeatBackPressure: IPv4 (4) + port (2) + level (1) + reserved (1)
	8,  // FeatDuplicate: group ID (4) + scope (1) + reserved (3)
	8,  // FeatEncrypted: key epoch (4) + nonce (4)
	8,  // FeatTimestamped: origin time ns (8)
	40, // FeatTraced: trace ID (4) + flags (1) + hop count (1) + origin config (1) + reserved (1) + 4 hop slots (8 each)
}

// Has reports whether all feature bits in mask are set in f.
func (f Features) Has(mask Features) bool { return f&mask == mask }

// Valid reports whether f only uses defined feature bits.
func (f Features) Valid() bool { return f&^AllFeatures == 0 }

// Layout is where the data packets of one valid feature set keep their
// fields: the header length and the offset of each active extension field.
// The layouts table holds one per feature set and is the one place the
// header layout is computed; View's accessors, Check and ExtLen read it
// too. A packet's layout is fixed by its feature bits, so a caller that has
// checked a packet resolves its layout once (View.Layout) and reads each
// field at its offset with no further checks.
type Layout struct {
	hdrLen uint8
	// off indexes feature bit position to the field's offset in the
	// packet, 0 when the feature is inactive (no field sits inside the
	// core header).
	off [featureCount]uint8
}

// layouts indexes a valid feature set to its Layout. Fields sit in
// ascending bit order, so a set's highest field comes right after the
// fields of the rest of the set. The longest header is 132 bytes, so a
// byte per offset suffices.
var layouts = func() (t [1 << featureCount]Layout) {
	t[0].hdrLen = CoreHeaderLen
	for f := 1; f < len(t); f++ {
		hi := bits.Len(uint(f)) - 1
		t[f] = t[f&^(1<<hi)]
		t[f].off[hi] = t[f].hdrLen
		t[f].hdrLen += uint8(extSizes[hi])
	}
	return t
}()

// ExtLen returns the total byte length of the extension fields implied by
// the feature set. It returns an error if an undefined bit is set.
func (f Features) ExtLen() (int, error) {
	if !f.Valid() {
		return 0, fmt.Errorf("%w: %#x", ErrUnknownFeature, uint32(f&^AllFeatures))
	}
	return int(layouts[f].hdrLen) - CoreHeaderLen, nil
}

// extRange returns the byte range, within a data packet whose feature set
// is f, of the extension field for feature bit feat. It returns
// ErrMissingFeature if feat is not exactly one feature bit active in f.
func (f Features) extRange(feat Features) (start, end int, err error) {
	if !f.Valid() {
		return 0, 0, fmt.Errorf("%w: %#x", ErrUnknownFeature, uint32(f&^AllFeatures))
	}
	if f&feat == 0 || feat&(feat-1) != 0 {
		return 0, 0, ErrMissingFeature
	}
	i := bits.TrailingZeros32(uint32(feat))
	start = int(layouts[f].off[i])
	return start, start + extSizes[i], nil
}

// HeaderLen returns the header length of the layout's packets.
func (l *Layout) HeaderLen() int { return int(l.hdrLen) }

// at returns the offset of feature bit feat's field, 0 when it is inactive.
func (l *Layout) at(feat Features) int { return int(l.off[bits.TrailingZeros32(uint32(feat))]) }

// The readers below take a packet of the layout's feature set that has
// passed Check, and report false for an inactive field. They decode with
// the same codecs as the View accessors.

// Seq reads the sequence number.
func (l *Layout) Seq(v View) (uint64, bool) {
	if off := l.at(FeatSequenced); off != 0 {
		return seqExtFromBytes(v[off:]).Seq, true
	}
	return 0, false
}

// RetransmitBuffer reads the retransmission buffer address.
func (l *Layout) RetransmitBuffer(v View) (Addr, bool) {
	if off := l.at(FeatReliable); off != 0 {
		return retransmitExtFromBytes(v[off:]).Buffer, true
	}
	return Addr{}, false
}

// Deadline reads the delivery deadline (without its notification address).
func (l *Layout) Deadline(v View) (deadlineNanos uint64, ok bool) {
	if off := l.at(FeatTimely); off != 0 {
		return deadlineExtFromBytes(v[off:]).DeadlineNanos, true
	}
	return 0, false
}

// Age reads the age extension.
func (l *Layout) Age(v View) (AgeExt, bool) {
	if off := l.at(FeatAgeTracked); off != 0 {
		return ageExtFromBytes(v[off:]), true
	}
	return AgeExt{}, false
}

// OriginTimestamp reads the origin timestamp.
func (l *Layout) OriginTimestamp(v View) (uint64, bool) {
	if off := l.at(FeatTimestamped); off != 0 {
		return timestampExtFromBytes(v[off:]).OriginNanos, true
	}
	return 0, false
}

// String renders the feature set as a compact list, e.g. "seq|rel|age".
func (f Features) String() string {
	if f == 0 {
		return "none"
	}
	s := ""
	for i := 0; i < featureCount; i++ {
		if f&(1<<i) != 0 {
			if s != "" {
				s += "|"
			}
			s += featureNames[i]
		}
	}
	if f&^AllFeatures != 0 {
		if s != "" {
			s += "|"
		}
		s += fmt.Sprintf("unknown(%#x)", uint32(f&^AllFeatures))
	}
	return s
}
