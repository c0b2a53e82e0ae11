// Package core holds the netsim adapters of the DMTP engines and decides
// nothing: the mode table, the mode change, the cipher seal, the stash,
// NAK service and the receive window are internal/dmtp's, and the
// resource map and planner are internal/discovery's. This package binds
// the engines to the internal/netsim substrate, as internal/live binds
// them to UDP sockets:
//
//   - Sender is the instrument-side source (① in Fig. 3 of the paper),
//     over dmtp's sender engine;
//   - BufferNode is the first-line DTN (② / "DTN 1" in Fig. 4), over
//     dmtp.RelayEngine, plus netsim ports and transit routing;
//   - Receiver is the downstream DTN (④ / "DTN 2"), over
//     dmtp.ReceiverEngine;
//   - loopClock and nodeDatapath carry the engines' Clock and Datapath
//     contracts onto virtual time and netsim nodes.
//
// Two protocol steps still run here, each until the engines take it:
// BufferNode's transit adoption repoints the retransmission field, and
// Sender.HandleFrame decodes back-pressure and deadline notices.
package core
