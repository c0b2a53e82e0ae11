package main

import (
	"time"

	"repro/internal/journal"
)

// workload is one set of inputs: the traffic shape plus the role settings
// that differ from the dmtp-send/-relay/-recv defaults.
type workload struct {
	name string
	// why is recorded in BENCHMARK.json and the README: what the workload
	// stresses that the others do not.
	why string

	flows       int           // instrument slices multiplexed over the one sender socket
	payload     int           // message bytes, prefix included
	ackInterval time.Duration // receiver cumulative-ACK cadence; 0 = never (the daemons' default)
	dropEveryN  int           // relay drops every Nth forwarded data packet
	nakDelay    time.Duration // receiver reorder tolerance; 0 = the 2 ms default
	// journal adds the relay's write-ahead journal to the workload's traced
	// invocation: the replay journals, and one extra live round runs with
	// the journal on (roundPlan.journal). The gated rounds never journal.
	// The benchmark may write only inside its checkout, so the journal
	// would sit on the checkout's device — here a shared virtual disk whose
	// 4 MiB fsyncs (the journal makes one per segment roll under every
	// sync policy) take 4 ms or 170 ms as the neighbours please. When the
	// writer falls behind, its queue fills, every Append parks the relay
	// loop, CPU per message triples and goodput falls to a third: ten runs
	// of the same code then spread over 40 %, and what they measure is the
	// disk.
	journal bool
	shards  int // relay shards; 0 = GOMAXPROCS, as dmtp-relay defaults
}

var workloads = []workload{
	{
		name: "daq1k_acked",
		why: "1 flow, 1 KiB, ACK every 2 ms, no loss: the clean encode-reshape-stash-forward-ingest-trim " +
			"path; the control for the other three",
		flows: 1, payload: 1024, ackInterval: 2 * time.Millisecond,
	},
	{
		name: "daq1k_lossy",
		why: "daq1k_acked with 2 % relay drops and a 10 ms NAK delay (~60 open gaps): gap tracking, " +
			"ServeNAK and retransmits work here and nowhere else",
		flows: 1, payload: 1024, ackInterval: 2 * time.Millisecond,
		dropEveryN: 50, nakDelay: 10 * time.Millisecond,
	},
	{
		name: "daq1k_unacked",
		why: "daq1k_acked with no ACKs, the daemons' default: the 64 MiB stash fills in warm-up and every " +
			"insert evicts, so the forward leg loses its batching",
		flows: 1, payload: 1024,
	},
	{
		name: "flows64",
		why: "64 flows of 256 B over the one socket, 2 shards: flow table, shard partitioning, per-flow " +
			"forward queues, 64 receiver streams and ACK timers; small packets. -trace 1 adds the journal",
		flows: 64, payload: 256, ackInterval: 2 * time.Millisecond,
		journal: true, shards: 2,
	},
}

// journalSync is the journal's sync mode wherever the benchmark opens one,
// in the journal round and in the replay alike, so that their journal rows
// describe one configuration. It is "none", which leaves one fsync per
// segment roll: with a group commit per batch the checkout's device would
// set every journal row instead of the journal's code.
const journalSync = journal.SyncNone

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// windowBytes is the closed loop's window: 256 KiB of payload in flight —
// 256 messages of 1 KiB, 1024 of 256 B. It stays far below the 4 MiB the
// kernel grants the relay's and receiver's sockets here, so nothing is shed
// unseen. Counting bytes, not messages, keeps the many-flow workload's
// bursts long enough to hold several packets per flow; at 256 small
// messages in flight the relay forwards one or two packets per syscall, and
// the run-to-run spread of that workload (21–27 %) is the wake-up cost of
// this VM, not the program.
const windowBytes = 256 << 10

func (w workload) window() int { return windowBytes / w.payload }

// Open-loop schedule, the same on every workload: 32 000 msgs/s as bursts
// of two full sender batches (so no message waits for the flush timer)
// every 2 ms — 10–20 % of what the trio sustains, so queues are empty and
// the latency is that of the hand-offs.
const (
	pacedBurst    = 64
	pacedInterval = 2 * time.Millisecond
	// pacedBacklog is how many messages may be outstanding before a burst
	// waits: 16 bursts, 32 ms of schedule, about half of what the 4 MiB
	// socket buffers hold at ~2.3 KB of kernel memory a packet. In a calm
	// round 64–128 are outstanding.
	pacedBacklog = 1024
)

// warmupMsgs is the fixed closed-loop warm-up before the timed phases. It
// fills the buffer pool and the sockets' caches and — at ~1.1 KB a stash
// entry — overfills the 64 MiB stash of daq1k_unacked, so that workload's
// timed phases are wholly in the evict regime.
const warmupMsgs = 100_000
