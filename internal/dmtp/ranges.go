package dmtp

import "repro/internal/wire"

// ToRanges compresses an ascending list of sequence numbers into
// inclusive ranges, merging duplicates and adjacent values. It is the one
// shared NAK range builder; both substrates' NAKs are produced through it.
func ToRanges(seqs []uint64) []wire.SeqRange {
	if len(seqs) == 0 {
		return nil
	}
	var out []wire.SeqRange
	cur := wire.SeqRange{From: seqs[0], To: seqs[0]}
	for _, s := range seqs[1:] {
		if s == cur.To || s == cur.To+1 {
			cur.To = s
			continue
		}
		out = append(out, cur)
		cur = wire.SeqRange{From: s, To: s}
	}
	return append(out, cur)
}
