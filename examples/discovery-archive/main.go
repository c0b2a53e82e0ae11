// Discovery + archive: the paper's §6 future-work items, end to end.
//
// Instead of the statically configured resource map the pilot
// "pre-supposes", the elements here *discover* each other: the DTN buffer
// and the border switch flood resource advertisements (the paper suggests
// piggy-backing on BGP; we flood hop by hop), the receiver-side agent
// assembles the map, and the planner derives the mode plan from it. The
// delivered waveforms are then transcoded into an HDF5-style hierarchical
// container (§6(2)) and read back bit-exact.
//
//	go run ./examples/discovery-archive
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/daq"
	"repro/internal/discovery"
	"repro/internal/dmtp"
	"repro/internal/h5lite"
	"repro/internal/netsim"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

func main() {
	nw := netsim.New(3)
	sensorAddr := wire.AddrFrom(10, 8, 0, 1, 4000)
	dtnAddr := wire.AddrFrom(10, 8, 1, 1, 7000)
	dstAddr := wire.AddrFrom(10, 8, 2, 1, 7000)

	// --- Phase 1: stand up the elements, each with a discovery agent.
	arch := h5lite.NewArchiver(true)
	receiver := core.NewReceiverHandler(nw, core.ReceiverConfig{
		NAKRetry: 40 * time.Millisecond,
		OnMessage: func(m core.Message) {
			if err := arch.Archive(m.Payload); err != nil {
				fmt.Println("archive:", err)
			}
		},
	})
	dstAgent := discovery.NewAgent(discovery.Config{Interval: 5 * time.Millisecond, Rounds: 12})
	nw.AddNode("facility", dstAddr, discovery.NewWrap(receiver, dstAgent))

	dtn := core.NewBufferHandler(nw, core.BufferConfig{
		Upgrade:     dmtp.ModeWAN,
		Forward:     dstAddr,
		ForwardPort: 1,
		MaxAge:      200 * time.Millisecond,
		Routes:      map[wire.Addr]int{sensorAddr: 0},
	})
	dtnAgent := discovery.NewAgent(discovery.Config{
		Self: wire.ResourceAdvert{
			Origin:        dtnAddr,
			Kind:          wire.ResourceBuffer,
			Segment:       0,
			CapacityBytes: 256 << 20,
		},
		Interval: 5 * time.Millisecond,
		Rounds:   12,
	})
	dtnNode := nw.AddNode("dtn1", dtnAddr, discovery.NewWrap(dtn, dtnAgent))

	fwd := p4sim.NewForwarder() // routes installed once ports exist
	sw := p4sim.NewSwitch(fwd, 400*time.Nanosecond, fwd)
	swAgent := discovery.NewAgent(discovery.Config{
		Self: wire.ResourceAdvert{
			Origin:  wire.AddrFrom(10, 8, 9, 1, 0),
			Kind:    wire.ResourceModeChanger,
			Segment: 1,
		},
		Interval: 5 * time.Millisecond,
		Rounds:   12,
	})
	swNode := nw.AddNode("border", wire.Addr{}, discovery.NewWrap(sw, swAgent))

	sensor := core.NewSender(nw, "sensor", sensorAddr, core.SenderConfig{
		Experiment: 0xA8C, Dst: dtnAddr, Mode: dmtp.ModeBare,
	})
	nw.Connect(sensor.Node(), dtnNode, netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 10 * time.Microsecond, QueueBytes: 32 << 20})
	nw.Connect(swNode, dtnNode, netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 10 * time.Microsecond, QueueBytes: 32 << 20})
	nw.Connect(swNode, nw.NodeByAddr(dstAddr), netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 15 * time.Millisecond, LossProb: 0.005, QueueBytes: 32 << 20})
	// Switch port 0 faces the DTN (and the sensor beyond it), port 1 the
	// facility.
	fwd.Route(dstAddr, 1).Route(dtnAddr, 0).Route(sensorAddr, 0)

	dtnAgent.Start()
	swAgent.Start()
	dstAgent.Start()
	nw.Loop().RunFor(30 * time.Millisecond) // let discovery converge

	// --- Phase 2: plan from the *discovered* map.
	segments := []discovery.Segment{
		{Name: "daq", RTT: 20 * time.Microsecond, RateBps: 100e9},
		{Name: "wan", RTT: 30 * time.Millisecond, RateBps: 100e9, LossProb: 0.005, Shared: true},
	}
	rmap := dstAgent.ResourceMap(segments)
	plans, err := discovery.Plan(rmap, discovery.PlanPolicy{})
	if err != nil {
		panic(err)
	}
	fmt.Println("discovered resources at the facility:")
	for _, e := range dstAgent.Snapshot() {
		fmt.Printf("  %v  kind=%d segment=%d (%d hops away)\n",
			e.Advert.Origin, e.Advert.Kind, e.Advert.Segment, e.Hops)
	}
	fmt.Println("derived mode plan:")
	for _, p := range plans {
		fmt.Printf("  %-6s → mode %q (buffer %v)\n", p.Segment.Name, p.Mode.Name, p.Buffer)
	}

	// --- Phase 3: stream waveforms and archive them at the destination.
	sensor.Stream(daq.NewLArTPC(daq.DefaultLArTPC(0, 200, 31)))
	nw.Loop().Run()

	enc := arch.File.Encode()
	back, err := h5lite.Decode(enc)
	if err != nil {
		panic(err)
	}
	var datasets int
	back.Walk(func(path string, d *h5lite.Dataset) { datasets++ })
	fmt.Printf("\narchived %d waveform messages into a %d-byte container (%d datasets)\n",
		arch.Archived, len(enc), datasets)
	ds, err := back.Open("/run1/slice0/msg0")
	if err != nil {
		panic(err)
	}
	fmt.Printf("first frame: %v %v dataset, trigger primitives attr present: %v\n",
		ds.Dims, ds.Type, len(ds.Attrs) > 0)
}
