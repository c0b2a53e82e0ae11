// Vera Rubin nightly capture: bulk elephant flow + latency-critical alerts
// on the same path (paper §2.1: the alert stream bursts to 5.4 Gbps
// alongside the nightly 30 TB capture).
//
// The telescope streams image segments from Chile to a US facility over a
// 75 ms WAN while its alert stream rides the same links. Both are DMTP:
// the bulk stream runs the recoverable WAN mode; alerts carry a deadline
// and an age budget, and the deadline-aware AQM at the border protects
// them when the bulk stream fills queues.
//
//	go run ./examples/vera-rubin-nightly
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/daq"
	"repro/internal/dmtp"
	"repro/internal/netsim"
	"repro/internal/p4sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	nw := netsim.New(11)
	scopeAddr := wire.AddrFrom(10, 5, 0, 1, 4000)
	dtnAddr := wire.AddrFrom(10, 5, 1, 1, 7000)
	usAddr := wire.AddrFrom(10, 5, 2, 1, 7000)

	bulkLat := telemetry.NewHistogram()
	alertLat := telemetry.NewHistogram()
	var images, alerts, recovered int
	receiver := core.NewReceiver(nw, "usdf", usAddr, core.ReceiverConfig{
		NAKRetry: 200 * time.Millisecond,
		OnMessage: func(m core.Message) {
			var h daq.Header
			if _, err := h.DecodeFromBytes(m.Payload); err != nil {
				return
			}
			if m.Recovered {
				recovered++
			}
			if h.Flags&daq.FlagAlert != 0 {
				alerts++
				if m.Latency >= 0 {
					alertLat.ObserveDuration(m.Latency)
				}
			} else {
				images++
				if m.Latency >= 0 {
					bulkLat.ObserveDuration(m.Latency)
				}
			}
		},
	})

	dtn := core.NewBufferNode(nw, "base-dtn", dtnAddr, core.BufferConfig{
		Upgrade:        dmtp.ModeWAN,
		Forward:        usAddr,
		ForwardPort:    1,
		MaxAge:         150 * time.Millisecond, // 2× the WAN crossing
		DeadlineBudget: 400 * time.Millisecond,
		DeadlineNotify: scopeAddr,
		CapacityBytes:  1 << 30,
		Routes:         map[wire.Addr]int{scopeAddr: 0},
	})

	fwd := p4sim.NewForwarder().Route(usAddr, 1).Route(dtnAddr, 0).Route(scopeAddr, 0)
	age := &p4sim.AgeTracker{PortDeltaMicros: map[int]uint32{p4sim.WildcardPort: 0}}
	sw := p4sim.NewSwitch(fwd, 400*time.Nanosecond, age, fwd)
	border := nw.AddNode("border", wire.Addr{}, sw)

	scope := core.NewSender(nw, "rubin", scopeAddr, core.SenderConfig{
		Experiment: 0x50B1, // Rubin
		Dst:        dtnAddr,
		Mode:       dmtp.ModeBare,
	})

	nw.Connect(scope.Node(), dtn.Node(), netsim.LinkConfig{
		RateBps: netsim.Gbps(40), Delay: 100 * time.Microsecond, QueueBytes: 64 << 20})
	nw.Connect(dtn.Node(), border, netsim.LinkConfig{
		RateBps: netsim.Gbps(40), Delay: 100 * time.Microsecond, QueueBytes: 64 << 20})
	// The WAN leg: deadline-aware AQM evicts aged bulk before fresh data.
	nw.Connect(border, receiver.Node(), netsim.LinkConfig{
		RateBps: netsim.Gbps(40), Delay: 75 * time.Millisecond, LossProb: 1e-4,
		QueueBytes: 32 << 20, DeadlineAware: true})

	// The nightly stream: 1 MiB image segments every 2 ms (≈4.2 Gbps)
	// with ~4 alerts trailing each image.
	scope.Stream(daq.NewRubin(daq.DefaultRubin(400, 23)))
	nw.Loop().Run()

	fmt.Printf("telescope sent %d messages; DTN upgraded %d to mode %q\n",
		scope.Stats.Sent, dtn.Stats().Upgraded, dmtp.ModeWAN.Name)
	fmt.Printf("delivered: %d image segments, %d alerts (%d recovered from the base DTN)\n",
		images, alerts, recovered)
	fmt.Printf("bulk  latency: %s\n", bulkLat)
	fmt.Printf("alert latency: %s\n", alertLat)
	fmt.Printf("aged deliveries: %d, deadline misses: %d\n",
		receiver.Stats.Aged, receiver.Stats.Late)
}
