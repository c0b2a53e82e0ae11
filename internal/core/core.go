// Package core implements the paper's primary contribution: the DMTP
// multi-modal transport endpoints and the machinery that plans and applies
// mode changes along a DAQ stream's path.
//
// The pieces map onto Fig. 3/Fig. 4 of the paper:
//
//   - Sender is the instrument-side source (① in Fig. 3): it emits DAQ
//     messages in mode 0 — bare experiment identification, no buffering for
//     retransmission, exactly as at the originating sensor.
//   - BufferNode is the first-line DTN (② / "DTN 1" in Fig. 4): it upgrades
//     the stream's mode for the WAN crossing (sequence numbers, the
//     retransmission-buffer pointer naming itself, age budget, deadline,
//     origin timestamp), buffers sequenced packets, and serves NAKs.
//   - Receiver is the downstream DTN (④ / "DTN 2"): it detects loss from
//     sequence gaps, requests retransmission from the nearest buffer named
//     in the header (not from the source — the paper's generalised
//     hop-by-hop X.25-style recovery), performs the destination timeliness
//     check, and delivers discrete messages to the application.
//   - The Mode values are the pilot's mode table, and ResourceMap is the
//     paper's "map of in-network programmable resources" (§6), from which
//     Plan assigns each path segment its mode.
//
// Endpoints run on the internal/netsim substrate; the same wire protocol
// also runs over real UDP sockets in internal/live.
package core

import "repro/internal/wire"

// Mode is a named transport mode: a config ID and the feature set its
// configuration bits must carry (paper §5.2: "The combination of fields 1
// and 2 indicate the transport's mode").
type Mode struct {
	Name     string
	ConfigID uint8
	Features wire.Features
}

// The pilot study's three modes (paper §5.4):
var (
	// ModeBare is mode 0: unreliable transport from the sensor to DTN 1.
	// The header only identifies the experiment.
	ModeBare = Mode{Name: "bare", ConfigID: 0, Features: 0}

	// ModeWAN is the age-sensitive, recoverable-loss mode between DTN 1
	// and DTN 2: sequenced, reliable (buffer-backed), age-tracked against
	// a budget, deadline-checked, origin-timestamped, and able to carry
	// back-pressure.
	ModeWAN = Mode{
		Name:     "wan",
		ConfigID: 1,
		Features: wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked |
			wire.FeatTimely | wire.FeatTimestamped | wire.FeatBackPressure,
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
