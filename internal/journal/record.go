package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/wire"
)

// On-disk framing. The byte-for-byte layout is documented in PROTOCOL.md
// ("Journal on-disk format"); TestGoldenRecordLayout fails when the doc
// and this codec disagree.
const (
	// SegMagic opens every segment file: "DMJ1" (DMTP Journal, layout 1).
	SegMagic = "DMJ1"
	// SegVersion is the record-layout version stamped into every segment
	// header. Readers reject segments with a version they do not know.
	SegVersion = 1
	// SegHeaderLen is the fixed segment-header size in bytes:
	// magic(4) + version(1) + reserved(1) + shard u16 + segment index u64.
	SegHeaderLen = 16

	// RecHeaderLen is the fixed record-header size in bytes:
	// type(1) + experiment u32 + sequence u64 + payload length u32.
	RecHeaderLen = 17
	// RecTrailerLen is the CRC-32C trailer size in bytes.
	RecTrailerLen = 4
	// RecOverhead is the framing cost of one record: header + trailer.
	RecOverhead = RecHeaderLen + RecTrailerLen
)

// Record types. The sequence and payload fields are type-dependent; see
// PROTOCOL.md for the exact semantics of each.
const (
	// RecAppend journals one stash insert; the payload is the stashed
	// packet exactly as the buffer engine retains it.
	RecAppend = 0x01
	// RecTombstone journals one capacity eviction (empty payload); the
	// sequence field names the evicted entry, the oldest its experiment
	// still held.
	RecTombstone = 0x02
	// RecTrim journals one cumulative-ACK trim (empty payload); the
	// sequence field is the cumulative sequence — every live entry of the
	// experiment at or below it is released.
	RecTrim = 0x03
	// RecFloors preserves an experiment's counters across segment
	// recycling: the sequence field is the sequence-assignment floor (the
	// highest sequence ever journalled) and the 8-byte payload is the
	// cumulative-ACK trim floor. Written into the active segment just
	// before an older segment whose every entry is released is deleted, so
	// replay never regresses sequence numbering.
	RecFloors = 0x04
)

// maxRecPayload bounds a record's declared payload length; anything
// larger than the biggest packet the transport can carry marks a
// corrupt frame rather than an allocation request.
const maxRecPayload = 1 << 20

// castagnoli is the CRC-32C table shared by framing and recovery.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord frames one record onto dst — header, payload, then the
// CRC-32C of both — and returns the extended slice. It is the package's
// only record encoder: the hot path frames onto the stage with it, the
// recycler frames RecFloors, and the golden vectors pin its bytes.
func appendRecord(dst []byte, typ byte, exp wire.ExperimentID, seq uint64, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint32(dst, uint32(exp))
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// segHeader serialises the segment header for (shard, index).
func segHeader(shard int, index uint64) []byte {
	h := make([]byte, SegHeaderLen)
	copy(h[0:4], SegMagic)
	h[4] = SegVersion
	h[5] = 0
	binary.BigEndian.PutUint16(h[6:8], uint16(shard))
	binary.BigEndian.PutUint64(h[8:16], index)
	return h
}

// parseSegHeader validates a segment header against the shard and index
// the filename claims.
func parseSegHeader(h []byte, shard int, index uint64) error {
	if len(h) < SegHeaderLen {
		return fmt.Errorf("short segment header: %d bytes", len(h))
	}
	if string(h[0:4]) != SegMagic {
		return fmt.Errorf("bad magic %q", h[0:4])
	}
	if h[4] != SegVersion {
		return fmt.Errorf("unsupported layout version %d", h[4])
	}
	if got := int(binary.BigEndian.Uint16(h[6:8])); got != shard {
		return fmt.Errorf("header claims shard %d, filename says %d", got, shard)
	}
	if got := binary.BigEndian.Uint64(h[8:16]); got != index {
		return fmt.Errorf("header claims segment %d, filename says %d", got, index)
	}
	return nil
}

// parseRecord decodes the record at the head of buf. A frame that is
// short, oversized, or fails its CRC returns ok == false — at the tail
// of the final segment that is a torn write (truncated on recovery);
// anywhere else it is corruption.
func parseRecord(buf []byte) (typ byte, exp wire.ExperimentID, seq uint64, payload []byte, size int, ok bool) {
	if len(buf) < RecOverhead {
		return 0, 0, 0, nil, 0, false
	}
	n := int(binary.BigEndian.Uint32(buf[13:17]))
	if n > maxRecPayload || len(buf) < RecOverhead+n {
		return 0, 0, 0, nil, 0, false
	}
	body := buf[:RecHeaderLen+n]
	want := binary.BigEndian.Uint32(buf[RecHeaderLen+n : RecOverhead+n])
	if crc32.Checksum(body, castagnoli) != want {
		return 0, 0, 0, nil, 0, false
	}
	return buf[0], wire.ExperimentID(binary.BigEndian.Uint32(buf[1:5])),
		binary.BigEndian.Uint64(buf[5:13]), buf[RecHeaderLen : RecHeaderLen+n],
		RecOverhead + n, true
}
