// Package baseline implements "today's approach" to DAQ transport (paper
// §4, Fig. 2) on the same simulated substrate as DMTP, so experiments
// compare like with like:
//
//   - a simplified but behaviourally faithful TCP: an ordered bytestream
//     with message delineation, cumulative ACKs, fast retransmit, RTO,
//     slow start and AIMD congestion avoidance, retransmission always from
//     the source, and head-of-line blocking at the receiver;
//   - a "tuned" TCP profile (large initial window, large buffers), the
//     heavily tuned configuration DTN operators run;
//   - split TCP via a proxy that terminates one connection and re-sends on
//     a second (the termination-and-buffering at stages ②/④ of Fig. 2);
//   - plain UDP (fire and forget), as used inside DAQ networks today.
//
// Baseline segments deliberately start with a byte from DMTP's control
// range (0xF8) that no DMTP codec claims: programmable elements on shared
// paths treat them as opaque control traffic and forward them unmodified,
// which is exactly how a P4 pipeline passes TCP through today.
package baseline

import (
	"encoding/binary"
	"fmt"
)

// SegMagic marks baseline transport segments on the wire.
const SegMagic = 0xF8

// Segment types.
const (
	SegData = 1
	SegAck  = 2
)

// segHeaderLen is magic(1) + type(1) + flowID(2) + seq(8) + ack(8) + len(2).
const segHeaderLen = 22

// Segment is one baseline TCP segment (or ACK).
type Segment struct {
	Type   uint8
	FlowID uint16
	// Seq is the byte offset of Payload in the stream (Type == SegData).
	Seq uint64
	// Ack is the cumulative acknowledgement (next expected byte).
	Ack     uint64
	Payload []byte
}

// AppendTo appends the encoded segment to b.
func (s *Segment) AppendTo(b []byte) ([]byte, error) {
	if len(s.Payload) > 0xFFFF {
		return nil, fmt.Errorf("baseline: payload %d exceeds 65535", len(s.Payload))
	}
	var hdr [segHeaderLen]byte
	hdr[0] = SegMagic
	hdr[1] = s.Type
	binary.BigEndian.PutUint16(hdr[2:4], s.FlowID)
	binary.BigEndian.PutUint64(hdr[4:12], s.Seq)
	binary.BigEndian.PutUint64(hdr[12:20], s.Ack)
	binary.BigEndian.PutUint16(hdr[20:22], uint16(len(s.Payload)))
	b = append(b, hdr[:]...)
	return append(b, s.Payload...), nil
}

// DecodeSegment parses a segment; the payload aliases b.
func DecodeSegment(b []byte) (*Segment, error) {
	if len(b) < segHeaderLen {
		return nil, fmt.Errorf("baseline: segment %d bytes", len(b))
	}
	if b[0] != SegMagic {
		return nil, fmt.Errorf("baseline: bad magic %#02x", b[0])
	}
	s := &Segment{
		Type:   b[1],
		FlowID: binary.BigEndian.Uint16(b[2:4]),
		Seq:    binary.BigEndian.Uint64(b[4:12]),
		Ack:    binary.BigEndian.Uint64(b[12:20]),
	}
	n := int(binary.BigEndian.Uint16(b[20:22]))
	if len(b) < segHeaderLen+n {
		return nil, fmt.Errorf("baseline: payload truncated: %d of %d", len(b)-segHeaderLen, n)
	}
	s.Payload = b[segHeaderLen : segHeaderLen+n]
	return s, nil
}
