// Supernova alert: the paper's flagship integration scenario (Req 10).
//
// A supernova burst detected in DUNE (South Dakota) must alert the Vera
// Rubin observatory (Chile) and two analysis sites on where to expect
// photons — neutrinos escape the collapsing star before photons are
// emitted, so minutes matter. The alert stream travels in DMTP's alert
// mode; the WAN border switch duplicates it in-network toward every
// subscriber, so nobody waits behind the storage facility.
//
//	go run ./examples/supernova-alert
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
	nw := netsim.New(7)
	duneAddr := wire.AddrFrom(10, 1, 0, 1, 4000)

	subscribers := []struct {
		name  string
		addr  wire.Addr
		delay time.Duration // one-way WAN distance from DUNE's border
	}{
		{"vera-rubin (Chile)", wire.AddrFrom(10, 2, 0, 1, 7000), 75 * time.Millisecond},
		{"fermilab", wire.AddrFrom(10, 3, 0, 1, 7000), 12 * time.Millisecond},
		{"cern", wire.AddrFrom(10, 4, 0, 1, 7000), 55 * time.Millisecond},
	}

	// The border switch duplicates alert-mode packets toward the group.
	fwd := p4sim.NewForwarder()
	dup := p4sim.NewDuplicator()
	sw := p4sim.NewSwitch(fwd, 400*time.Nanosecond, dup, fwd)
	border := nw.AddNode("dune-border", wire.Addr{}, sw)

	type sub struct {
		name string
		hist *telemetry.Histogram
	}
	var subs []*sub
	for i, s := range subscribers {
		st := &sub{name: s.name, hist: telemetry.NewHistogram()}
		subs = append(subs, st)
		rcv := core.NewReceiver(nw, s.name, s.addr, core.ReceiverConfig{
			OnMessage: func(m core.Message) {
				if m.Latency >= 0 {
					st.hist.ObserveDuration(m.Latency)
				}
			},
		})
		nw.Connect(border, rcv.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: s.delay})
		fwd.Route(s.addr, len(border.Ports)-1)
		if i > 0 {
			// The primary copy routes to subscriber 0; the rest are
			// duplicated in the data plane.
			dup.Group(1, p4sim.Copy{Port: -1, Dst: s.addr})
		}
	}

	dune := core.NewSender(nw, "dune", duneAddr, core.SenderConfig{
		Experiment:     0xD0E, // DUNE
		Dst:            subscribers[0].addr,
		Mode:           dmtp.ModeAlert,
		DupGroup:       1,
		DupScope:       1,
		DeadlineBudget: 200 * time.Millisecond,
	})
	nw.Connect(dune.Node(), border, netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 100 * time.Microsecond})
	fwd.Route(duneAddr, len(border.Ports)-1)

	// The burst: a decaying shower of neutrino-interaction records.
	burst := daq.DefaultSupernova(99)
	burst.PeakRateHz = 500
	burst.Duration = 3 * time.Second
	dune.Stream(daq.NewSupernova(burst))
	nw.Loop().Run()

	fmt.Printf("supernova burst: %d interaction records in DMTP mode %q (%v)\n",
		dune.Stats.Sent, dmtp.ModeAlert.Name, dmtp.ModeAlert.Features)
	fmt.Printf("in-network duplications at the border: %d\n\n", dup.Duplicated)
	for _, s := range subs {
		fmt.Printf("  %-20s %s\n", s.name+":", s.hist)
	}
	fmt.Println("\nEvery subscriber hears about the burst one direct WAN crossing after")
	fmt.Println("detection — no detour through a storage facility, no TCP termination.")
}
