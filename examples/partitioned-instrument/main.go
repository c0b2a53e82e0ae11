// Partitioned instrument: two research groups share one detector (Req 8).
//
// Detectors may be partitioned for different simultaneous experiments by
// different researchers; the DMTP header's slice bits say which partition
// produced each datagram, so in-network counters and per-slice delivery
// work without payload inspection. Here slices 1 and 2 of a LArTPC stream
// through the same DTN and switch; the switch's per-slice counters and the
// receiver's per-slice accounting separate them purely from headers.
//
//	go run ./examples/partitioned-instrument
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/daq"
	"repro/internal/dmtp"
	"repro/internal/netsim"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

func main() {
	nw := netsim.New(5)
	sensorAddr := wire.AddrFrom(10, 7, 0, 1, 4000)
	dtnAddr := wire.AddrFrom(10, 7, 1, 1, 7000)
	dstAddr := wire.AddrFrom(10, 7, 2, 1, 7000)

	perSlice := map[uint8]int{}
	receiver := core.NewReceiver(nw, "facility", dstAddr, core.ReceiverConfig{
		OnMessage: func(m core.Message) {
			perSlice[m.Experiment.Slice()]++
		},
	})
	dtn := core.NewBufferNode(nw, "dtn1", dtnAddr, core.BufferConfig{
		Upgrade:     dmtp.ModeWAN,
		Forward:     dstAddr,
		ForwardPort: 1,
		MaxAge:      100 * time.Millisecond,
		Routes:      map[wire.Addr]int{sensorAddr: 0},
	})
	fwd := p4sim.NewForwarder().Route(dstAddr, 1).Route(dtnAddr, 0).Route(sensorAddr, 0)
	sw := p4sim.NewSwitch(fwd, 400*time.Nanosecond, p4sim.ExperimentCounter{}, fwd)
	border := nw.AddNode("border", wire.Addr{}, sw)
	sensor := core.NewSender(nw, "detector", sensorAddr, core.SenderConfig{
		Experiment: 0xD0E,
		Dst:        dtnAddr,
		Mode:       dmtp.ModeBare,
	})
	nw.Connect(sensor.Node(), dtn.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 10 * time.Microsecond})
	nw.Connect(dtn.Node(), border, netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 100 * time.Microsecond})
	nw.Connect(border, receiver.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: 10 * time.Millisecond})

	// Group A runs a beam study on slice 1; group B hunts supernova
	// candidates on slice 2. One physical detector, one wire.
	groupA := daq.DefaultLArTPC(1, 300, 21)
	groupB := daq.DefaultSupernova(22)
	groupB.Slice = 2
	groupB.Duration = 200 * time.Millisecond
	groupB.PeakRateHz = 5000
	sensor.Stream(daq.NewMerge(daq.NewLArTPC(groupA), daq.NewSupernova(groupB)))
	nw.Loop().Run()

	fmt.Printf("one detector, one link, two experiments:\n\n")
	for i, n := range []string{"group A (beam study)", "group B (supernova hunt)"} {
		slice := uint8(i + 1)
		fmt.Printf("  slice %d — %-25s delivered %4d messages\n", slice, n+":", perSlice[slice])
	}
	fmt.Println("\nper-slice counters at the border switch (header-only, Req 8):")
	for _, slice := range []int{1, 2} {
		name := fmt.Sprintf("exp/%d/slice/%d", 0xD0E, slice)
		c := sw.Pipeline.Ctx.Counter(name)
		fmt.Printf("  %-22s %6d packets  %9d bytes\n", name, c.Packets, c.Bytes)
	}
}
