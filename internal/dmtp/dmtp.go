// Package dmtp holds the mode table (Mode, ModeBare … ModeAlert) and the
// substrate-agnostic DMTP protocol engines: the state machines that define
// the protocol's behaviour — encapsulation and pacing (SenderEngine: Encap
// + Pacer), the relay element (RelayEngine: flow table, the one mode
// change — config 0 upgraded, every other config passed through — and the
// journal lifecycle over sharded BufferEngines, which own the stash, NAK
// service and cumulative trim), and sequence-gap detection, NAK scheduling
// with capped jittered exponential backoff, reorder/flush and the
// destination timeliness check (ReceiverEngine).
//
// The engines never touch a socket, a simulator loop, or the wall clock
// directly. They are driven purely through three narrow contracts:
//
//   - Clock: current protocol time plus one-shot timers. The simulator
//     adapter (internal/core) backs it with internal/sim virtual-time
//     timers; the UDP adapter (internal/live) reads the wall clock once
//     per socket read and keeps the timers in a TimerQueue that its read
//     loop fires, or uses FakeClock in tests and the conformance suite.
//   - Datapath: "send these bytes to this address". Substrates decide
//     what an address means (a netsim node, a UDP endpoint) and obey the
//     ownership contract documented on the interface.
//   - Telemetry sinks: a stats struct the engine increments in place,
//     optional telemetry.Histogram pointers, and an optional shared
//     telemetry.CounterSet (normally a faults.Plan's), so injected-vs-
//     recovered accounting spans both substrates.
//
// internal/core and internal/live are thin adapters over these engines:
// every protocol change lands on both substrates by construction, and the
// differential conformance suite (internal/conformance) checks that the
// same seeded scenario produces identical delivery order, NAK ranges, and
// recovery decisions on the simulator and on real sockets.
package dmtp

import "repro/internal/wire"

// Clock is the engines' notion of time: absolute nanoseconds plus
// one-shot timers. Implementations must fire timers in (time, schedule
// order); the engines rely on that for deterministic NAK grouping.
type Clock interface {
	// Now returns the current time in nanoseconds. The epoch is the
	// substrate's: virtual time zero in the simulator, the Unix epoch on
	// the live path. Engines only ever subtract and add durations.
	Now() int64
	// Schedule runs fn once at absolute time at (clamped to now if the
	// instant has passed). The returned Timer cancels a pending fn.
	Schedule(at int64, fn func()) Timer
}

// Timer is a handle on a scheduled callback. A handle is dead once its
// callback starts or its Stop returns: a clock may reuse it for a later
// timer (a TimerQueue does), so stopping a dead handle can cancel
// another timer. The engines drop their handle at both points.
type Timer interface {
	// Stop cancels the callback if it has not started.
	Stop()
}

// Datapath transmits engine output. Substrates route by wire.Addr: the
// simulator resolves it to a netsim node, the live path dials UDP.
type Datapath interface {
	// SendControl transmits a freshly encoded control packet (NAK, Ack).
	// Ownership of pkt transfers to the datapath.
	SendControl(dst wire.Addr, pkt []byte)
	// SendData transmits a data packet the engine retains (e.g. a stash
	// entry being retransmitted). The engine keeps ownership. As with a
	// relay's Emit, a datapath may keep the reference until its caller
	// releases the engine's lock — a stash buffer let go meanwhile comes to
	// Buffer.Release, where the adapter defers recycling it — and must copy
	// what it keeps longer. Writing to a socket is a copy; handing the
	// slice to a simulator frame is not. The engine never asks for a
	// flush: the packet may leave at once or queued, before or after
	// anything a relay's Emit still retains.
	SendData(dst wire.Addr, pkt []byte)
}

// Mode is a named transport mode: a config ID and the feature set its
// configuration bits must carry (paper §5.2: "The combination of fields 1
// and 2 indicate the transport's mode"). The feature bits, not the config
// ID, decide the header's layout.
type Mode struct {
	Name     string
	ConfigID uint8
	Features wire.Features
}

// configBare is mode 0's config ID: DAQ data starts out in it at the
// sensor, and it is the one config a RelayEngine upgrades.
const configBare = 0

// The mode table: the pilot study's modes (paper §5.4), and ModeLive, the
// config 1 that the live relay installs.
var (
	// ModeBare is mode 0: unreliable transport from the sensor to DTN 1.
	// The header only identifies the experiment.
	ModeBare = Mode{Name: "bare", ConfigID: configBare}

	// ModeWAN is the age-sensitive, recoverable-loss mode between DTN 1
	// and DTN 2: sequenced, reliable (buffer-backed), age-tracked against
	// a budget, deadline-checked, origin-timestamped, and able to carry
	// back-pressure.
	ModeWAN = Mode{
		Name:     "wan",
		ConfigID: 1,
		Features: ModeLive.Features | wire.FeatBackPressure,
	}

	// ModeLive is ModeWAN without the back-pressure extension: config 1 as
	// the live relay installs it. Conformance and the campaign install it
	// on the simulator too, so both substrates emit the same bytes.
	ModeLive = Mode{
		Name:     "live",
		ConfigID: 1,
		Features: wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked |
			wire.FeatTimely | wire.FeatTimestamped,
	}

	// ModeDeliver is the destination-side mode: the timeliness check
	// happens at the receiver; the retransmission pointer is dropped once
	// the stream leaves the recoverable segment.
	ModeDeliver = Mode{
		Name:     "deliver",
		ConfigID: 2,
		Features: wire.FeatSequenced | wire.FeatAgeTracked | wire.FeatTimely | wire.FeatTimestamped,
	}

	// ModeAlert is the in-network duplication mode used for multi-domain
	// alerts (Req 10): timestamped, deadline-checked, duplicated toward a
	// distribution group.
	ModeAlert = Mode{
		Name:     "alert",
		ConfigID: 3,
		Features: wire.FeatTimely | wire.FeatTimestamped | wire.FeatDuplicate,
	}
)

// GapFloorBias exists solely so the conformance suite can prove it
// detects engine divergence (see internal/conformance): a nonzero bias
// reproduces an off-by-one gap-detection floor on whichever substrate
// runs while it is set, which must make the differential test fail.
// It must be zero outside that self-test.
var GapFloorBias uint64
