package core

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// bufferRig wires upstream ── buffer ── downstream.
type bufferRig struct {
	nw                        *netsim.Network
	buf                       *BufferNode
	up, down                  *netsim.Host
	upN, downN                *netsim.Node
	upAddr, bufAddr, downAddr wire.Addr
}

func newBufferRig(t *testing.T, mutate func(*BufferConfig)) *bufferRig {
	t.Helper()
	r := &bufferRig{
		nw:       netsim.New(1),
		up:       &netsim.Host{},
		down:     &netsim.Host{},
		upAddr:   wire.AddrFrom(10, 0, 0, 1, 1),
		bufAddr:  wire.AddrFrom(10, 0, 1, 1, 1),
		downAddr: wire.AddrFrom(10, 0, 2, 1, 1),
	}
	cfg := BufferConfig{
		UpgradeFrom: ModeBare.ConfigID,
		Upgrade:     ModeWAN,
		Forward:     r.downAddr,
		ForwardPort: 1,
		MaxAge:      100 * time.Millisecond,
		Routes:      map[wire.Addr]int{r.upAddr: 0},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r.buf = NewBufferNode(r.nw, "buf", r.bufAddr, cfg)
	r.upN = r.nw.AddNode("up", r.upAddr, r.up)
	r.downN = r.nw.AddNode("down", r.downAddr, r.down)
	r.nw.Connect(r.buf.Node(), r.upN, netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: time.Microsecond})
	r.nw.Connect(r.buf.Node(), r.downN, netsim.LinkConfig{RateBps: netsim.Gbps(10), Delay: time.Microsecond})
	return r
}

func (r *bufferRig) sendBare(t *testing.T, payload string) {
	t.Helper()
	h := wire.Header{ConfigID: ModeBare.ConfigID, Experiment: wire.NewExperimentID(4, 0)}
	data, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	r.upN.SendTo(r.bufAddr, append(data, payload...))
}

func TestBufferEvictsOldestWhenFull(t *testing.T) {
	rig := newBufferRig(t, func(c *BufferConfig) { c.CapacityBytes = 3000 })
	for i := 0; i < 5; i++ {
		rig.sendBare(t, string(make([]byte, 1000)))
	}
	rig.nw.Loop().Run()
	if rig.buf.Stats().Evicted == 0 {
		t.Fatalf("no evictions: %+v", rig.buf.Stats())
	}
	if rig.buf.BufferedBytes() > 3000 {
		t.Fatalf("capacity exceeded: %d", rig.buf.BufferedBytes())
	}
	// NAK for an evicted packet is a miss; for a retained one, a hit.
	nakFor := func(seq uint64) {
		n := wire.NAK{Experiment: wire.NewExperimentID(4, 0), Requester: rig.downAddr,
			Ranges: []wire.SeqRange{{From: seq, To: seq}}}
		data, err := n.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		rig.downN.SendTo(rig.bufAddr, data)
	}
	nakFor(1) // evicted
	nakFor(5) // retained
	rig.nw.Loop().Run()
	if rig.buf.Stats().Misses != 1 || rig.buf.Stats().Retransmits != 1 {
		t.Fatalf("misses=%d retransmits=%d", rig.buf.Stats().Misses, rig.buf.Stats().Retransmits)
	}
}

func TestBufferTrimOnAck(t *testing.T) {
	rig := newBufferRig(t, nil)
	for i := 0; i < 4; i++ {
		rig.sendBare(t, "pppp")
	}
	rig.nw.Loop().Run()
	before := rig.buf.BufferedBytes()
	ack := wire.Ack{Experiment: wire.NewExperimentID(4, 0), CumulativeSeq: 3, Acker: rig.downAddr}
	data, err := ack.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.downN.SendTo(rig.bufAddr, data)
	rig.nw.Loop().Run()
	if rig.buf.Stats().Trimmed != 3 {
		t.Fatalf("trimmed %d", rig.buf.Stats().Trimmed)
	}
	if rig.buf.BufferedBytes() >= before {
		t.Fatal("occupancy not reduced")
	}
}

func TestBufferStoresCopyNotAlias(t *testing.T) {
	// Downstream mutation of the forwarded packet must not corrupt the
	// buffered copy used for retransmission.
	rig := newBufferRig(t, nil)
	var forwarded wire.View
	rig.down.Recv = func(f *netsim.Frame) { forwarded = wire.View(f.Data) }
	rig.sendBare(t, "original")
	rig.nw.Loop().Run()
	if forwarded == nil {
		t.Fatal("nothing forwarded")
	}
	// Simulate an on-path element mutating the in-flight packet.
	if _, err := forwarded.AddAge(999); err != nil {
		t.Fatal(err)
	}
	// Retransmission must carry the original header state.
	var retransmitted wire.View
	rig.down.Recv = func(f *netsim.Frame) { retransmitted = wire.View(f.Data) }
	nak := wire.NAK{Experiment: wire.NewExperimentID(4, 0), Requester: rig.downAddr,
		Ranges: []wire.SeqRange{{From: 1, To: 1}}}
	data, err := nak.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.downN.SendTo(rig.bufAddr, data)
	rig.nw.Loop().Run()
	if retransmitted == nil {
		t.Fatal("no retransmission")
	}
	age, err := retransmitted.Age()
	if err != nil {
		t.Fatal(err)
	}
	if age.AgeMicros != 0 {
		t.Fatalf("buffered copy was aliased: age %d", age.AgeMicros)
	}
}

func TestBufferRoutesTransitControl(t *testing.T) {
	// A control packet addressed upstream (not to the buffer) must be
	// forwarded out the configured route, not consumed.
	rig := newBufferRig(t, nil)
	var atUp int
	rig.up.Recv = func(f *netsim.Frame) { atUp++ }
	sig := wire.BackPressureSignal{Level: 1, Reporter: wire.AddrFrom(9, 9, 9, 9, 9)}
	data, err := sig.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.downN.SendTo(rig.upAddr, data)
	rig.nw.Loop().Run()
	if atUp != 1 {
		t.Fatalf("transit control not routed upstream: %d", atUp)
	}
}

func TestBufferPassesThroughForeignModes(t *testing.T) {
	// Traffic already in another mode (not UpgradeFrom) addressed to the
	// buffer is forwarded downstream untouched.
	rig := newBufferRig(t, nil)
	var got wire.View
	rig.down.Recv = func(f *netsim.Frame) { got = wire.View(f.Data) }
	h := wire.Header{ConfigID: 9, Experiment: wire.NewExperimentID(4, 0)}
	data, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.upN.SendTo(rig.bufAddr, data)
	rig.nw.Loop().Run()
	if got == nil || got.ConfigID() != 9 {
		t.Fatalf("foreign mode mangled: %v", got)
	}
	if rig.buf.Stats().Upgraded != 0 {
		t.Fatal("foreign mode upgraded")
	}
}

func TestBufferPerExperimentSequences(t *testing.T) {
	rig := newBufferRig(t, nil)
	var seqs = map[wire.ExperimentID][]uint64{}
	rig.down.Recv = func(f *netsim.Frame) {
		v := wire.View(f.Data)
		if s, err := v.Seq(); err == nil {
			seqs[v.Experiment()] = append(seqs[v.Experiment()], s)
		}
	}
	send := func(exp wire.ExperimentID) {
		h := wire.Header{ConfigID: ModeBare.ConfigID, Experiment: exp}
		data, err := h.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		rig.upN.SendTo(rig.bufAddr, data)
	}
	a, b := wire.NewExperimentID(1, 0), wire.NewExperimentID(1, 1) // two slices
	send(a)
	send(b)
	send(a)
	rig.nw.Loop().Run()
	if len(seqs[a]) != 2 || seqs[a][0] != 1 || seqs[a][1] != 2 {
		t.Fatalf("slice A seqs %v", seqs[a])
	}
	if len(seqs[b]) != 1 || seqs[b][0] != 1 {
		t.Fatalf("slice B seqs %v", seqs[b])
	}
}

// TestBufferCountsMalformed: a datagram too short to check and a NAK whose
// ranges are cut short each raise dmtp.relay.malformed by exactly one.
func TestBufferCountsMalformed(t *testing.T) {
	rig := newBufferRig(t, nil)
	reg := metrics.NewRegistry()
	rig.buf.RegisterMetrics(reg)
	nak, err := (&wire.NAK{Experiment: wire.NewExperimentID(4, 0), Requester: rig.downAddr,
		Ranges: []wire.SeqRange{{From: 1, To: 1}}}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, bad := range [][]byte{{0, 0, 0}, nak[:len(nak)-1]} {
		rig.downN.SendTo(rig.bufAddr, bad)
		rig.nw.Loop().Run()
		if got, _ := metrics.SampleValue(reg.Snapshot(), metrics.MetricRelayMalformed); got != int64(i+1) {
			t.Fatalf("after %d malformed datagrams: %s %d", i+1, metrics.MetricRelayMalformed, got)
		}
	}
}
