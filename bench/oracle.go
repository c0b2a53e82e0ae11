package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
)

// Every message the generator emits starts with a fixed prefix the
// delivery oracle and the latency clock read back at the receiver:
//
//	[0:8)   due time, Unix nanoseconds (when the message was meant to leave)
//	[8:16)  message index, counted from 0 across the whole round
//	[16:20) CRC-32C of the body, bytes [20:)
const (
	offDue    = 0
	offIndex  = 8
	offSum    = 16
	prefixLen = 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// verdict is the oracle's judgement of one delivery.
type verdict int

const (
	delivGood    verdict = iota // first intact delivery of its index
	delivDup                    // intact, but the index was delivered before
	delivCorrupt                // wrong length, flow, or checksum
)

// ledger is the per-round delivery oracle: one bitmap per flow, indexed by
// the message index carried in the payload, plus length and body-checksum
// checks. It proves exactly-once, intact delivery — the property the
// end-to-end numbers are conditional on. deliver is called from the
// receiver's single read goroutine; the totals are read after it has
// stopped.
type ledger struct {
	payloadLen int
	slices     []uint8  // flow → instrument slice the generator used
	sums       []uint32 // body variant → CRC-32C, as generated
	seen       [][]uint64

	good, dups, corrupt uint64
}

func newLedger(payloadLen int, slices []uint8, sums []uint32) *ledger {
	return &ledger{
		payloadLen: payloadLen,
		slices:     slices,
		sums:       sums,
		seen:       make([][]uint64, len(slices)),
	}
}

// deliver judges one delivered payload and returns the index and due time
// it carried (zero when the prefix was unreadable).
func (l *ledger) deliver(slice uint8, p []byte) (idx uint64, due int64, v verdict) {
	if len(p) != l.payloadLen || len(p) < prefixLen {
		l.corrupt++
		return 0, 0, delivCorrupt
	}
	due = int64(binary.BigEndian.Uint64(p[offDue:]))
	idx = binary.BigEndian.Uint64(p[offIndex:])
	sum := crc32.Checksum(p[prefixLen:], castagnoli)
	flow := int(idx % uint64(len(l.slices)))
	if l.slices[flow] != slice ||
		sum != binary.BigEndian.Uint32(p[offSum:]) ||
		sum != l.sums[idx%uint64(len(l.sums))] {
		l.corrupt++
		return idx, due, delivCorrupt
	}
	i := idx / uint64(len(l.slices))
	word, bit := int(i/64), uint64(1)<<(i%64)
	for word >= len(l.seen[flow]) {
		l.seen[flow] = append(l.seen[flow], 0)
	}
	if l.seen[flow][word]&bit != 0 {
		l.dups++
		return idx, due, delivDup
	}
	l.seen[flow][word] |= bit
	l.good++
	return idx, due, delivGood
}

// holes counts the indices below sent that were never delivered intact.
func (l *ledger) holes(sent uint64) uint64 {
	var have uint64
	flows := uint64(len(l.slices))
	for f, bm := range l.seen {
		// Flow f carries indices f, f+flows, …; below sent that is this many.
		n := (sent + flows - 1 - uint64(f)) / flows
		for w, x := range bm {
			if lo := uint64(w) * 64; lo+64 > n {
				if lo >= n {
					break
				}
				x &= 1<<(n-lo) - 1
			}
			have += uint64(bits.OnesCount64(x))
		}
	}
	return sent - have
}
