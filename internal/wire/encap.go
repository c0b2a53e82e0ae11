package wire

import (
	"encoding/binary"
	"fmt"
)

// Encapsulation codecs for the two carrier framings DMTP supports (Req 1):
// directly over Ethernet (as Mu2e does with its DAQ data) and over IPv4
// (optionally inside UDP, the pragmatic encapsulation for WAN crossings and
// the live userspace path). These are deliberately minimal — just enough of
// each protocol for DMTP to ride on — and follow the same
// DecodeFromBytes/AppendTo conventions as the DMTP header itself.

// MAC is an Ethernet hardware address.
type MAC [6]byte

// String renders m in colon-separated hex, e.g. "02:00:00:00:00:01".
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// EthernetHeaderLen is the length of an untagged Ethernet header.
const EthernetHeaderLen = 14

// Ethernet is an untagged Ethernet II frame header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

// AppendTo appends the encoded Ethernet header to b.
func (e *Ethernet) AppendTo(b []byte) []byte {
	var hdr [EthernetHeaderLen]byte
	copy(hdr[0:6], e.Dst[:])
	copy(hdr[6:12], e.Src[:])
	binary.BigEndian.PutUint16(hdr[12:14], e.EtherType)
	return append(b, hdr[:]...)
}

// DecodeFromBytes parses an Ethernet header from the start of b and returns
// the number of bytes consumed.
func (e *Ethernet) DecodeFromBytes(b []byte) (int, error) {
	if len(b) < EthernetHeaderLen {
		return 0, fmt.Errorf("%w: %d bytes for Ethernet", ErrTruncated, len(b))
	}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	return EthernetHeaderLen, nil
}

// IPv4HeaderLen is the length of an IPv4 header without options; DMTP
// never emits options.
const IPv4HeaderLen = 20

// IPv4 is a minimal IPv4 header (no options, no fragmentation — DAQ paths
// are MTU-configured to remove fragmentation, paper §2.1).
type IPv4 struct {
	TOS      uint8
	TTL      uint8
	Protocol uint8
	Src, Dst [4]byte
	// TotalLen is filled by AppendTo from the payload length and reported
	// by DecodeFromBytes.
	TotalLen uint16
}

// AppendTo appends the encoded IPv4 header to b; payloadLen is the number
// of bytes that will follow the header.
func (ip *IPv4) AppendTo(b []byte, payloadLen int) ([]byte, error) {
	total := IPv4HeaderLen + payloadLen
	if total > 0xFFFF {
		return nil, fmt.Errorf("wire: IPv4 total length %d exceeds 65535", total)
	}
	var hdr [IPv4HeaderLen]byte
	hdr[0] = 0x45 // version 4, IHL 5
	hdr[1] = ip.TOS
	binary.BigEndian.PutUint16(hdr[2:4], uint16(total))
	hdr[6] = 0x40 // don't fragment
	hdr[8] = ip.TTL
	hdr[9] = ip.Protocol
	copy(hdr[12:16], ip.Src[:])
	copy(hdr[16:20], ip.Dst[:])
	binary.BigEndian.PutUint16(hdr[10:12], ipChecksum(hdr[:]))
	return append(b, hdr[:]...), nil
}

// DecodeFromBytes parses an IPv4 header from the start of b and returns the
// number of bytes consumed. It verifies the header checksum.
func (ip *IPv4) DecodeFromBytes(b []byte) (int, error) {
	if len(b) < IPv4HeaderLen {
		return 0, fmt.Errorf("%w: %d bytes for IPv4", ErrTruncated, len(b))
	}
	if b[0]>>4 != 4 {
		return 0, fmt.Errorf("%w: IP version %d", ErrBadEncapsulation, b[0]>>4)
	}
	ihl := int(b[0]&0x0F) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return 0, fmt.Errorf("%w: IHL %d", ErrBadEncapsulation, ihl)
	}
	if ipChecksum(b[:ihl]) != 0 {
		return 0, fmt.Errorf("%w: bad IPv4 checksum", ErrBadEncapsulation)
	}
	ip.TOS = b[1]
	ip.TotalLen = binary.BigEndian.Uint16(b[2:4])
	ip.TTL = b[8]
	ip.Protocol = b[9]
	copy(ip.Src[:], b[12:16])
	copy(ip.Dst[:], b[16:20])
	return ihl, nil
}

// ipChecksum computes the Internet checksum over b. Over a header with a
// correct checksum field the result is zero.
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDP is a minimal UDP header. The checksum is left zero (legal for IPv4
// and standard practice for DAQ streams that rely on link-layer CRCs).
type UDP struct {
	SrcPort, DstPort uint16
	// Length is filled by AppendTo and reported by DecodeFromBytes.
	Length uint16
}

// AppendTo appends the encoded UDP header to b; payloadLen is the number of
// bytes that will follow.
func (u *UDP) AppendTo(b []byte, payloadLen int) ([]byte, error) {
	total := UDPHeaderLen + payloadLen
	if total > 0xFFFF {
		return nil, fmt.Errorf("wire: UDP length %d exceeds 65535", total)
	}
	var hdr [UDPHeaderLen]byte
	binary.BigEndian.PutUint16(hdr[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], u.DstPort)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(total))
	return append(b, hdr[:]...), nil
}

// DecodeFromBytes parses a UDP header from the start of b and returns the
// number of bytes consumed.
func (u *UDP) DecodeFromBytes(b []byte) (int, error) {
	if len(b) < UDPHeaderLen {
		return 0, fmt.Errorf("%w: %d bytes for UDP", ErrTruncated, len(b))
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	return UDPHeaderLen, nil
}

// Encap identifies the carrier framing of a DMTP packet.
type Encap uint8

// Supported encapsulations.
const (
	// EncapNone is a bare DMTP packet (used inside the simulator, whose
	// frames carry addressing out of band).
	EncapNone Encap = iota
	// EncapEthernet frames DMTP directly in Ethernet (EtherTypeDMTP).
	EncapEthernet
	// EncapIPv4 carries DMTP directly over IPv4 (IPProtoDMTP).
	EncapIPv4
	// EncapUDP carries DMTP over IPv4+UDP (UDPPortDMTP).
	EncapUDP
)

// String names the encapsulation ("none", "ethernet", "ipv4", "udp").
func (e Encap) String() string {
	switch e {
	case EncapNone:
		return "none"
	case EncapEthernet:
		return "ethernet"
	case EncapIPv4:
		return "ipv4"
	case EncapUDP:
		return "udp"
	}
	return fmt.Sprintf("encap(%d)", uint8(e))
}

// StripEncap detects and removes the carrier framing from a raw frame,
// returning the inner DMTP packet as a View onto the same buffer. It
// accepts bare DMTP, Ethernet, IPv4, and IPv4+UDP framings.
func StripEncap(frame []byte) (View, Encap, error) {
	// Ethernet?
	if len(frame) >= EthernetHeaderLen {
		var eth Ethernet
		if _, err := eth.DecodeFromBytes(frame); err == nil && eth.EtherType == EtherTypeDMTP {
			return View(frame[EthernetHeaderLen:]), EncapEthernet, nil
		}
	}
	// IPv4?
	if len(frame) >= IPv4HeaderLen && frame[0]>>4 == 4 {
		var ip IPv4
		if n, err := ip.DecodeFromBytes(frame); err == nil {
			switch ip.Protocol {
			case IPProtoDMTP:
				return View(frame[n:]), EncapIPv4, nil
			case 17: // UDP
				var udp UDP
				if un, err := udp.DecodeFromBytes(frame[n:]); err == nil && udp.DstPort == UDPPortDMTP {
					return View(frame[n+un:]), EncapUDP, nil
				}
			}
		}
	}
	// Bare DMTP: sanity-check the core header.
	v := View(frame)
	if _, err := v.Check(); err == nil {
		return v, EncapNone, nil
	}
	return nil, EncapNone, ErrNotDMTP
}
