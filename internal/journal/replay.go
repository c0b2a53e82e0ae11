package journal

import (
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/wire"
)

// Entry is one stash entry a recovery reconstructed: exactly what the
// buffer engine should re-stash (via RestoreStash) before serving NAKs.
type Entry struct {
	// Exp and Seq key the entry in the stash.
	Exp wire.ExperimentID
	// Seq is the entry's assigned sequence number.
	Seq uint64
	// Payload is the stashed packet, freshly allocated (not pooled); the
	// restorer takes ownership.
	Payload []byte
}

// Recovered is the outcome of one journal scan (Open or Replay).
//
// The counters are kept independently during the scan, so
// Appended − Tombstoned == Replayed is a real consistency check on the
// replay itself — a replay that silently drops records (see
// ReplayDropBias) breaks the balance, which is what the campaign's
// journal oracle asserts.
type Recovered struct {
	// Entries are the surviving stash entries in original append order
	// (the order capacity eviction should see on restore).
	Entries []Entry
	// Seqs is each experiment's sequence floor: the highest sequence the
	// journal ever saw assigned, whether or not the entry survived.
	// RestoreSeq raises the engine's counters to these so a restarted
	// relay never re-assigns a sequence number.
	Seqs map[wire.ExperimentID]uint64
	// Trims is each experiment's cumulative-ACK floor at scan time.
	Trims map[wire.ExperimentID]uint64
	// Appended counts append records scanned.
	Appended uint64
	// Tombstoned counts entry removals applied while scanning: explicit
	// tombstones, trim sweeps, and same-key overwrites.
	Tombstoned uint64
	// Replayed is len(Entries).
	Replayed uint64
	// TruncatedTail reports that the final segment ended in a torn
	// record, which Open truncated away.
	TruncatedTail bool
}

// replayKey keys the live-entry map during a scan.
type replayKey struct {
	exp wire.ExperimentID
	seq uint64
}

// recoverSegments scans segs in order and reconstructs the surviving
// stash. When forOpen is true (the constructor's recovery path), a torn
// tail in the final segment is truncated on disk, and the per-segment
// append maxima and the highest tombstone per experiment are seeded into
// j.sealed and j.released so recycling bookkeeping resumes where the
// previous process left off (safe: the writer goroutine has not
// started). When forOpen is false (Replay on a live journal), a torn
// record fails the scan instead — the Flush barrier guarantees complete
// records, so a bad frame is real corruption.
func (j *Journal) recoverSegments(segs []segRef, forOpen bool) (*Recovered, error) {
	rec := &Recovered{
		Seqs:  make(map[wire.ExperimentID]uint64),
		Trims: make(map[wire.ExperimentID]uint64),
	}
	store := make(map[replayKey][]byte)
	var order []replayKey

	drop := func(k replayKey) {
		if _, ok := store[k]; ok {
			delete(store, k)
			rec.Tombstoned++
		}
	}

	for si, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if err := parseSegHeader(data, j.opts.Shard, seg.index); err != nil {
			return nil, fmt.Errorf("journal: %s: %v", seg.path, err)
		}
		expMax := make(map[wire.ExperimentID]uint64)
		off := SegHeaderLen
		for off < len(data) {
			typ, exp, seq, payload, size, ok := parseRecord(data[off:])
			if !ok {
				if !forOpen || si != len(segs)-1 {
					return nil, fmt.Errorf("journal: %s: corrupt record at offset %d", seg.path, off)
				}
				// Torn tail of the final segment: the write the crash cut
				// short. Truncate it away; everything before it is intact.
				if err := os.Truncate(seg.path, int64(off)); err != nil {
					return nil, fmt.Errorf("journal: truncating torn tail: %w", err)
				}
				rec.TruncatedTail = true
				j.tornTails.Add(1)
				break
			}
			switch typ {
			case RecAppend:
				rec.Appended++
				if seq > rec.Seqs[exp] {
					rec.Seqs[exp] = seq
				}
				if seq > expMax[exp] {
					expMax[exp] = seq
				}
				if ReplayDropBias > 0 && rec.Appended%uint64(ReplayDropBias) == 0 {
					break // deliberately broken replay for oracle self-tests
				}
				k := replayKey{exp, seq}
				drop(k) // same-key overwrite counts as a removal
				store[k] = append([]byte(nil), payload...)
				order = append(order, k)
			case RecTombstone:
				drop(replayKey{exp, seq})
				if forOpen {
					j.released[exp] = max(j.released[exp], seq)
				}
			case RecTrim:
				if seq > rec.Trims[exp] {
					rec.Trims[exp] = seq
				}
				for _, k := range order {
					if k.exp == exp && k.seq <= seq {
						drop(k)
					}
				}
			case RecFloors:
				if len(payload) == 8 {
					if cum := binary.BigEndian.Uint64(payload); cum > rec.Trims[exp] {
						rec.Trims[exp] = cum
					}
				}
				if seq > rec.Seqs[exp] {
					rec.Seqs[exp] = seq
				}
			}
			off += size
		}
		if forOpen {
			j.sealed = append(j.sealed, sealedSeg{index: seg.index, expMax: expMax})
		}
	}

	// Keys can repeat in order after a same-key overwrite; the surviving
	// payload belongs at the key's latest position.
	last := make(map[replayKey]int, len(store))
	for i, k := range order {
		last[k] = i
	}
	for i, k := range order {
		if last[k] != i {
			continue
		}
		if payload, ok := store[k]; ok {
			rec.Entries = append(rec.Entries, Entry{Exp: k.exp, Seq: k.seq, Payload: payload})
		}
	}
	rec.Replayed = uint64(len(rec.Entries))
	return rec, nil
}
