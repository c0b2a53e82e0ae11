package journal

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"repro/internal/wire"
)

// The golden vectors below are the byte-for-byte layouts documented in
// PROTOCOL.md ("Journal on-disk format"). They are hand-written, not
// derived from the codec: if either the codec or the document changes,
// this test fails, and the fix is to change BOTH in lockstep (and bump
// SegVersion if the change is not backward compatible).

// goldenSegHeader is a segment header for shard 5, segment index
// 0x0102030405060708: magic "DMJ1", version 1, one reserved zero byte,
// shard as big-endian u16, index as big-endian u64.
var goldenSegHeader = []byte{
	'D', 'M', 'J', '1', // magic
	0x01,       // layout version
	0x00,       // reserved
	0x00, 0x05, // shard 5
	0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // segment index
}

// goldenRecords holds one hand-framed record per type. Every record is
// type(1) + experiment u32 + sequence u64 + payload length u32, then the
// payload, then a CRC-32C (Castagnoli) of header+payload — all fields
// big-endian.
var goldenRecords = []struct {
	name    string
	typ     byte
	exp     wire.ExperimentID
	seq     uint64
	payload []byte
	framed  []byte
}{
	{
		name: "append", typ: RecAppend,
		exp: 0xAABBCCDD, seq: 0x1122334455667788,
		payload: []byte("hello"),
		framed: []byte{
			0x01,                   // RecAppend
			0xaa, 0xbb, 0xcc, 0xdd, // experiment
			0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, // sequence
			0x00, 0x00, 0x00, 0x05, // payload length
			'h', 'e', 'l', 'l', 'o', // payload
			0x8f, 0xc2, 0xd8, 0xf0, // CRC-32C
		},
	},
	{
		name: "tombstone", typ: RecTombstone,
		exp: 1, seq: 2,
		framed: []byte{
			0x02, // RecTombstone
			0x00, 0x00, 0x00, 0x01,
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
			0x00, 0x00, 0x00, 0x00, // empty payload
			0x25, 0xd4, 0xfc, 0x6a,
		},
	},
	{
		name: "trim", typ: RecTrim,
		exp: 1, seq: 7,
		framed: []byte{
			0x03, // RecTrim
			0x00, 0x00, 0x00, 0x01,
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,
			0x00, 0x00, 0x00, 0x00,
			0xa2, 0x64, 0xf1, 0x29,
		},
	},
	{
		name: "floors", typ: RecFloors,
		exp: 1, seq: 9, // sequence floor
		payload: []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04}, // trim floor
		framed: []byte{
			0x04, // RecFloors
			0x00, 0x00, 0x00, 0x01,
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09,
			0x00, 0x00, 0x00, 0x08,
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04,
			0x64, 0x2e, 0x04, 0x2d,
		},
	},
}

// TestGoldenSegmentHeaderLayout pins the segment header byte layout.
func TestGoldenSegmentHeaderLayout(t *testing.T) {
	got := segHeader(5, 0x0102030405060708)
	if !bytes.Equal(got, goldenSegHeader) {
		t.Fatalf("segment header layout drifted from PROTOCOL.md:\n got % x\nwant % x", got, goldenSegHeader)
	}
	if err := parseSegHeader(goldenSegHeader, 5, 0x0102030405060708); err != nil {
		t.Fatalf("golden segment header rejected: %v", err)
	}
	// The documented fixed sizes are load-bearing for the vectors above.
	if SegHeaderLen != 16 || RecHeaderLen != 17 || RecTrailerLen != 4 || RecOverhead != 21 {
		t.Fatalf("framing constants drifted: seg=%d rechdr=%d trailer=%d overhead=%d",
			SegHeaderLen, RecHeaderLen, RecTrailerLen, RecOverhead)
	}
	if SegMagic != "DMJ1" || SegVersion != 1 {
		t.Fatalf("magic/version drifted: %q v%d", SegMagic, SegVersion)
	}
}

// TestGoldenRecordLayout pins every record type's frame: the codec must
// produce exactly the documented bytes, and parse them back losslessly.
func TestGoldenRecordLayout(t *testing.T) {
	for _, g := range goldenRecords {
		t.Run(g.name, func(t *testing.T) {
			framed := appendRecord(nil, g.typ, g.exp, g.seq, g.payload)
			if !bytes.Equal(framed, g.framed) {
				t.Fatalf("frame layout drifted from PROTOCOL.md:\n got % x\nwant % x", framed, g.framed)
			}
			// On the stage a record follows other records: what is already
			// there is neither touched nor covered by the new record's CRC.
			if staged := appendRecord([]byte{0xEE, 0xEE}, g.typ, g.exp, g.seq, g.payload); !bytes.Equal(staged[:2], []byte{0xEE, 0xEE}) || !bytes.Equal(staged[2:], g.framed) {
				t.Fatalf("record framed after two staged bytes = % x, want them and then % x", staged, g.framed)
			}
			typ, exp, seq, payload, size, ok := parseRecord(g.framed)
			if !ok {
				t.Fatal("golden frame failed to parse")
			}
			if typ != g.typ || exp != g.exp || seq != g.seq || size != len(g.framed) {
				t.Fatalf("parse mismatch: typ=%#x exp=%#x seq=%#x size=%d", typ, exp, seq, size)
			}
			if !bytes.Equal(payload, g.payload) {
				t.Fatalf("payload mismatch: got % x want % x", payload, g.payload)
			}
			// Any single flipped byte must fail the CRC (or, for the length
			// field, the bounds check) — the torn-tail detector depends on it.
			for i := range g.framed {
				mut := append([]byte(nil), g.framed...)
				mut[i] ^= 0xff
				if _, _, _, _, _, ok := parseRecord(mut); ok {
					t.Fatalf("byte %d corruption went undetected", i)
				}
			}
		})
	}
}

// TestGoldenRecordTypeValues pins the on-disk type codes — reordering
// the constants would silently re-type every existing journal.
func TestGoldenRecordTypeValues(t *testing.T) {
	if RecAppend != 0x01 || RecTombstone != 0x02 || RecTrim != 0x03 || RecFloors != 0x04 {
		t.Fatalf("record type codes drifted: append=%#x tombstone=%#x trim=%#x floors=%#x",
			RecAppend, RecTombstone, RecTrim, RecFloors)
	}
}

// TestGoldenFloorsPayload pins the RecFloors payload encoding: one
// big-endian u64 trim floor.
func TestGoldenFloorsPayload(t *testing.T) {
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], 4)
	if !bytes.Equal(p[:], goldenRecords[3].payload) {
		t.Fatalf("floors payload drifted: % x", p)
	}
}

// TestGoldenDocMatchesLayout ties PROTOCOL.md's "Journal on-disk format"
// section to the codec: the doc must state the current magic, header
// sizes, filename pattern, and type table, so layout changes cannot land
// without the operator documentation following.
func TestGoldenDocMatchesLayout(t *testing.T) {
	data, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	i := strings.Index(doc, "## Journal on-disk format")
	if i < 0 {
		t.Fatal("PROTOCOL.md lost its \"Journal on-disk format\" section")
	}
	section := doc[i:]
	if j := strings.Index(section[1:], "\n## "); j >= 0 {
		section = section[:j+1]
	}
	for _, want := range []string{
		`"` + SegMagic + `"`,  // segment magic
		"Version is 1",        // SegVersion
		"16-byte header",      // SegHeaderLen
		"17-byte header",      // RecHeaderLen
		"4-byte trailer",      // RecTrailerLen
		"CRC-32C",             // checksum algorithm
		"big-endian",          // byte order
		"shard%03d-%016x.seg", // segment filename pattern
		"1 MiB",               // maxRecPayload
		"`0x01` | Append",     // record type table, in code order
		"`0x02` | Tombstone",
		"`0x03` | Trim",
		"`0x04` | Floors",
	} {
		if !strings.Contains(section, want) {
			t.Errorf("PROTOCOL.md journal section no longer states %q", want)
		}
	}
	if SegHeaderLen != 16 || RecHeaderLen != 17 || RecTrailerLen != 4 || SegVersion != 1 || maxRecPayload != 1<<20 {
		t.Fatalf("codec constants drifted from the documented layout: seg=%d rec=%d trailer=%d ver=%d max=%d",
			SegHeaderLen, RecHeaderLen, RecTrailerLen, SegVersion, maxRecPayload)
	}
}
