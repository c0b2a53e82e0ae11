package main

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// testPayload builds message idx the way the generator does.
func testPayload(l *ledger, idx uint64) (slice uint8, p []byte) {
	p = make([]byte, l.payloadLen)
	for i := prefixLen; i < len(p); i++ {
		p[i] = byte(idx%uint64(len(l.sums))) + byte(i)
	}
	binary.BigEndian.PutUint64(p[offIndex:], idx)
	binary.BigEndian.PutUint32(p[offSum:], crc32.Checksum(p[prefixLen:], castagnoli))
	return l.slices[idx%uint64(len(l.slices))], p
}

func testLedger(flows int) *ledger {
	slices := make([]uint8, flows)
	for f := range slices {
		slices[f] = uint8(flows - 1 - f) // any permutation
	}
	l := newLedger(64, slices, make([]uint32, 4))
	for k := range l.sums {
		_, p := testPayload(l, uint64(k))
		l.sums[k] = binary.BigEndian.Uint32(p[offSum:])
	}
	return l
}

// The oracle's self-test: a duplicate, a hole and a flipped byte must each
// be caught, and a clean run must not be.
func TestLedgerCatchesDuplicateHoleAndFlippedByte(t *testing.T) {
	const sent = 1000
	for _, flows := range []int{1, 3, 64} {
		l := testLedger(flows)
		for idx := uint64(0); idx < sent; idx++ {
			if _, _, v := l.deliver(testPayload(l, idx)); v != delivGood {
				t.Fatalf("flows=%d: clean delivery %d judged %v", flows, idx, v)
			}
		}
		if l.good != sent || l.dups != 0 || l.corrupt != 0 || l.holes(sent) != 0 {
			t.Fatalf("flows=%d: clean run: good %d dups %d corrupt %d holes %d", flows, l.good, l.dups, l.corrupt, l.holes(sent))
		}

		// Duplicate.
		if _, _, v := l.deliver(testPayload(l, 17)); v != delivDup || l.dups != 1 {
			t.Errorf("flows=%d: duplicate judged %v, dups %d", flows, v, l.dups)
		}

		// Hole: one more was sent than ever arrived, and one in the middle.
		if got := l.holes(sent + 1); got != 1 {
			t.Errorf("flows=%d: holes with an undelivered tail = %d, want 1", flows, got)
		}
		h := testLedger(flows)
		for idx := uint64(0); idx < sent; idx++ {
			if idx != 500 {
				h.deliver(testPayload(h, idx))
			}
		}
		if got := h.holes(sent); got != 1 {
			t.Errorf("flows=%d: holes with message 500 missing = %d, want 1", flows, got)
		}

		// Flipped byte, in the body and in the checksum itself.
		for _, at := range []int{prefixLen + 5, offSum + 1} {
			slice, p := testPayload(l, sent)
			p[at] ^= 0x01
			if _, _, v := l.deliver(slice, p); v != delivCorrupt {
				t.Errorf("flows=%d: byte %d flipped, judged %v", flows, at, v)
			}
		}
		if l.corrupt != 2 {
			t.Errorf("flows=%d: corrupt = %d, want 2", flows, l.corrupt)
		}
	}
}

func TestLedgerCatchesWrongLengthFlowAndBody(t *testing.T) {
	l := testLedger(4)
	slice, p := testPayload(l, 0)
	if _, _, v := l.deliver(slice, p[:len(p)-1]); v != delivCorrupt {
		t.Errorf("short payload judged %v", v)
	}
	if _, _, v := l.deliver(slice+1, p); v != delivCorrupt {
		t.Errorf("payload on the wrong flow judged %v", v)
	}
	// A self-consistent payload whose body is not the one generated for
	// this index (say, another message's body under this index).
	_, q := testPayload(l, 1)
	binary.BigEndian.PutUint64(q[offIndex:], 0)
	if _, _, v := l.deliver(slice, q); v != delivCorrupt {
		t.Errorf("swapped body judged %v", v)
	}
	if l.good != 0 {
		t.Errorf("good = %d after only bad deliveries", l.good)
	}
}
