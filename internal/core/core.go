// Package core holds the simulator adapters of the DMTP engines and the
// path planner. The protocol itself — the mode table, the mode change, the
// stash, NAK service and the receive window — is internal/dmtp's; this
// package binds it to the internal/netsim substrate, as internal/live
// binds it to UDP sockets:
//
//   - Sender is the instrument-side source (① in Fig. 3 of the paper),
//     over dmtp's sender engine;
//   - BufferNode is the first-line DTN (② / "DTN 1" in Fig. 4), over
//     dmtp.RelayEngine, plus what only the simulator does: transit
//     adoption and the cipher seal;
//   - Receiver is the downstream DTN (④ / "DTN 2"), over
//     dmtp.ReceiverEngine.
//
// ResourceMap is the paper's "map of in-network programmable resources"
// (§6), from which Plan assigns each path segment a mode from dmtp's table.
package core
