// Quickstart: the smallest end-to-end DMTP pipeline.
//
// A sensor streams 500 detector messages in mode 0; the first-line DTN
// upgrades them into the recoverable WAN mode, buffers them, and forwards
// them across a lossy 15 ms WAN; the receiver detects the losses from
// sequence gaps, NAKs the DTN buffer named in each packet's header, and
// delivers every message.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/daq"
	"repro/internal/dmtp"
	"repro/internal/netsim"
	"repro/internal/wire"
)

func main() {
	nw := netsim.New(42)

	sensorAddr := wire.AddrFrom(10, 0, 0, 1, 4000)
	dtnAddr := wire.AddrFrom(10, 0, 1, 1, 7000)
	dstAddr := wire.AddrFrom(10, 0, 2, 1, 7000)

	// The destination: NAK-based recovery plus message delivery.
	var delivered, recovered int
	receiver := core.NewReceiver(nw, "receiver", dstAddr, core.ReceiverConfig{
		NAKRetry: 40 * time.Millisecond,
		OnMessage: func(m core.Message) {
			delivered++
			if m.Recovered {
				recovered++
			}
		},
	})

	// The first-line DTN: mode upgrade + retransmission buffer.
	dtn := core.NewBufferNode(nw, "dtn1", dtnAddr, core.BufferConfig{
		Upgrade:     dmtp.ModeWAN,
		Forward:     dstAddr,
		ForwardPort: 1,
		MaxAge:      200 * time.Millisecond,
		Routes:      map[wire.Addr]int{sensorAddr: 0},
	})

	// The instrument: emits bare mode-0 datagrams; no source buffering.
	sensor := core.NewSender(nw, "sensor", sensorAddr, core.SenderConfig{
		Experiment: 42,
		Dst:        dtnAddr,
		Mode:       dmtp.ModeBare,
	})

	nw.Connect(sensor.Node(), dtn.Node(), netsim.LinkConfig{
		RateBps: netsim.Gbps(100), Delay: 10 * time.Microsecond})
	nw.Connect(dtn.Node(), receiver.Node(), netsim.LinkConfig{
		RateBps: netsim.Gbps(100), Delay: 15 * time.Millisecond, LossProb: 0.01})

	// Stream a synthetic LArTPC waveform readout.
	sensor.Stream(daq.NewLArTPC(daq.DefaultLArTPC(0, 500, 7)))
	nw.Loop().Run()

	fmt.Printf("sent      %d messages (mode %q)\n", sensor.Stats.Sent, dmtp.ModeBare.Name)
	fmt.Printf("upgraded  %d at the DTN (mode %q: features %v)\n",
		dtn.Stats().Upgraded, dmtp.ModeWAN.Name, dmtp.ModeWAN.Features)
	fmt.Printf("delivered %d (%d recovered via %d NAKs served by the DTN buffer)\n",
		delivered, recovered, dtn.Stats().NAKs)
	fmt.Printf("losses remaining: %d\n", receiver.Stats.Lost)
	fmt.Printf("origin→delivery latency: %v\n", receiver.LatencyHist)
}
