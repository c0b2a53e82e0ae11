package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/netsim"
	"repro/internal/wire"
)

func TestOsmoticSensorsJoinTheDMTPWorld(t *testing.T) {
	nw := netsim.New(1)
	gwAddr := wire.AddrFrom(10, 9, 0, 1, 1)
	dtnAddr := wire.AddrFrom(10, 9, 1, 1, 1)
	dstAddr := wire.AddrFrom(10, 9, 2, 1, 1)

	perSlice := map[uint8]int{}
	var sampleExp wire.ExperimentID
	var sampleSeq uint64
	facility := NewReceiver(nw, "facility", dstAddr, ReceiverConfig{
		OnMessage: func(m Message) {
			perSlice[m.Experiment.Slice()]++
			sampleExp, sampleSeq = m.Experiment, m.Seq
		},
	})
	dtn := NewBufferNode(nw, "dtn", dtnAddr, BufferConfig{
		UpgradeFrom: ModeBare.ConfigID,
		Upgrade:     ModeWAN,
		Forward:     dstAddr,
		ForwardPort: 1,
		MaxAge:      time.Second,
		Routes:      map[wire.Addr]int{gwAddr: 0},
	})
	gw := NewOsmoticGateway(nw, "gateway", gwAddr, dtnAddr, 0x05E)

	// Two dispersed sensors over cell-backhaul-ish TCP (40 ms, 10 Mbps,
	// some loss), one per instrument slice.
	var sensors []*baseline.TCPSender
	for i := 0; i < 2; i++ {
		addr := wire.AddrFrom(10, 9, 3, byte(i+1), 1)
		snd := baseline.NewTCPSender(nw, fmt.Sprintf("sensor%d", i), addr, gwAddr, uint16(i+1), baseline.TCPConfig{MSS: 1400})
		nw.Connect(snd.Node(), gw.Node(), netsim.LinkConfig{
			RateBps: netsim.Mbps(10), Delay: 40 * time.Millisecond, LossProb: 0.03, QueueBytes: 1 << 20})
		gw.AddSensor(addr, uint16(i+1), uint8(i+1))
		sensors = append(sensors, snd)
	}
	// Uplink to the DAQ world, wired last; then the DTN's WAN leg.
	nw.Connect(gw.Node(), dtn.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: time.Millisecond})
	gw.SetUplink(len(gw.Node().Ports) - 1)
	nw.Connect(dtn.Node(), facility.Node(), netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: 10 * time.Millisecond})

	const perSensor = 60
	for i, snd := range sensors {
		for j := 0; j < perSensor; j++ {
			reading := make([]byte, 1024)
			copy(reading, fmt.Sprintf("sensor%d-reading%d", i, j))
			snd.Send(reading)
		}
		snd.Close()
	}
	nw.Loop().Run()

	if gw.Ingested != 2*perSensor || gw.Emitted != 2*perSensor {
		t.Fatalf("gateway ingested %d emitted %d", gw.Ingested, gw.Emitted)
	}
	if perSlice[1] != perSensor || perSlice[2] != perSensor {
		t.Fatalf("per-slice deliveries %v", perSlice)
	}
	// The readings went through the full DMTP treatment: upgraded at the
	// DTN, sequenced, attributed to the right experiment.
	if dtn.Stats().Upgraded != 2*perSensor {
		t.Fatalf("dtn upgraded %d", dtn.Stats().Upgraded)
	}
	if sampleExp.Experiment() != 0x05E || sampleSeq == 0 {
		t.Fatalf("last message: %v seq %d", sampleExp, sampleSeq)
	}
	// The lossy backhaul was TCP's problem, not DMTP's: sensors
	// retransmitted, the gateway saw complete streams.
	if sensors[0].Stats.Retransmits+sensors[1].Stats.Retransmits == 0 {
		t.Fatal("no backhaul retransmissions despite loss")
	}
}
