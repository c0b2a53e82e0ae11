package dmtp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// fuzzAddr makes an Addr of the low 48 bits of x; zero is the unset address.
func fuzzAddr(x uint64) wire.Addr {
	return wire.AddrFrom(byte(x>>40), byte(x>>32), byte(x>>24), byte(x>>16), uint16(x))
}

// upgradeModes are the table modes a relay can install from config 0.
var upgradeModes = []Mode{ModeWAN, ModeLive, ModeDeliver, ModeAlert}

// FuzzUpgradeRecipe checks the relay's compiled upgrade against its
// reference model, ReshapeInto followed by StampUpgrade, byte for byte:
// any data config ID (both must refuse a control one), any pair of feature sets, any incoming header bytes, any
// Upgrade, seq and now, and payloads of 0–9000 bytes, written over a dirty
// buffer. The seeds upgrade config-0 packets of several feature sets into
// each table mode, keeping an incoming trace as the relay does.
func FuzzUpgradeRecipe(f *testing.F) {
	nonzero := bytes.Repeat([]byte{0x5a, 0xc3, 0x01}, 42) // every field set, origin timestamp included
	type seed struct {
		config     uint8
		have, want wire.Features
		hdr        []byte // the incoming header from the experiment ID on
	}
	seeds := []seed{{0, wire.AllFeatures, 0, nonzero}}
	for _, m := range upgradeModes {
		for _, in := range []struct {
			have wire.Features
			hdr  []byte
		}{
			{0, nil},
			{wire.FeatTraced, nonzero},
			{wire.FeatTimestamped, nil}, // origin timestamp zero
			{wire.FeatTimestamped, nonzero},
			{wire.FeatAgeTracked, nonzero},
			{wire.FeatBackPressure, nonzero},
			{wire.FeatTimely | wire.FeatSequenced, nonzero},
		} {
			seeds = append(seeds, seed{m.ConfigID, in.have, m.Features | in.have&wire.FeatTraced, in.hdr})
		}
	}
	for _, in := range seeds {
		for i, size := range []uint16{0, 1024, 9000} {
			maxAge, budget, addrs := int64(0), int64(0), uint64(0)
			if i > 0 {
				maxAge, budget, addrs = int64(500*time.Millisecond), int64(time.Second), 0x7f0000014494
			}
			f.Add(in.config, uint16(in.have), uint16(in.want), in.hdr, maxAge, budget, addrs, addrs+1, addrs+2, uint64(i), int64(time.Hour), size)
		}
	}
	f.Fuzz(func(t *testing.T, config uint8, in, out uint16, hdr []byte, maxAge, budget int64, self, notify, sink, seq uint64, now int64, size uint16) {
		have, want := wire.Features(in)&wire.AllFeatures, wire.Features(out)&wire.AllFeatures
		u := Upgrade{
			Self:             fuzzAddr(self),
			MaxAge:           time.Duration(maxAge),
			DeadlineBudget:   time.Duration(budget),
			DeadlineNotify:   fuzzAddr(notify),
			BackPressureSink: fuzzAddr(sink),
		}
		pkt, err := (&wire.Header{Features: have}).AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		copy(pkt[4:], hdr)
		for i := 0; i < int(size%9001); i++ {
			pkt = append(pkt, byte(i*7))
		}
		v := wire.View(pkt)
		if _, err := v.Check(); err != nil {
			t.Fatal(err)
		}

		stamp := func(up wire.View, seq uint64, now int64) { StampUpgrade(up, seq, now, u) }
		if config >= wire.ControlBase {
			// A control config ID is no data mode: both must refuse it.
			if _, err := v.ReshapeInto(nil, config, want); err == nil {
				t.Fatalf("ReshapeInto took control config %#x", config)
			}
			if _, err := wire.CompileReshape(have, config, want, stamp); err == nil {
				t.Fatalf("CompileReshape took control config %#x", config)
			}
			return
		}
		ref, err := v.ReshapeInto(nil, config, want)
		if err != nil {
			t.Fatal(err)
		}
		StampUpgrade(ref, seq, now, u)
		r, err := wire.CompileReshape(have, config, want, stamp)
		if err != nil {
			t.Fatalf("%v → %v with %+v: %v", have, want, u, err)
		}
		dirty := bytes.Repeat([]byte{0xa5}, len(ref)+8)
		if got := r.Apply(dirty, v, seq, now); !bytes.Equal(got, ref) {
			t.Fatalf("%v → %v with %+v, seq %d, now %d:\nrecipe    %x\nreference %x", have, want, u, seq, now, got, ref)
		}
	})
}

// BenchmarkRelayUpgrade times RelayEngine.Handle per upgraded packet as
// the live relay runs it: the live relay's onward mode and Upgrade, two
// shards, a flight recorder and the registered metrics, stash entries from
// a wire.StashLog as the live relay's are, one clock reading per burst of
// 64 packets, and every flow trimmed each trim packets as a cumulative ACK
// would. One flow of 1 KiB packets is the daq1k workloads' shape, 64 flows
// of 256 B flows64's. A trim depth of 1024 keeps the stash inside a 2 MiB
// L2; 4096, about 2 ms at flows64's rate, lets it leave the way it does
// live. The evict cases never trim: each shard's 64 MiB stash (one shard
// for one flow, both for 64) is filled before the timer starts, so every
// insert evicts the oldest entry, cold in memory, as daq1k_unacked's relay
// does once its receiver sends no ACKs; with 64 flows of 256 B each entry
// is 5 cache lines, not 17. The stash log is sized for both shards, and
// any entry it could not carve fails the benchmark: a heap fallback is an
// allocation on a fraction of packets, which allocs/op rounds to 0.
func BenchmarkRelayUpgrade(b *testing.B) {
	for _, bc := range []struct {
		flows, size, trim int // trim 0: never trimmed, evicting
	}{
		{1, 1024, 1024},
		{1, 1024, 4096},
		{1, 1024, 0},
		{64, 256, 1024},
		{64, 256, 4096},
		{64, 256, 0},
	} {
		name := fmt.Sprintf("flows=%d/size=%d/trim=%d", bc.flows, bc.size, bc.trim)
		if bc.trim == 0 {
			name = fmt.Sprintf("flows=%d/size=%d/evict", bc.flows, bc.size)
		}
		b.Run(name, func(b *testing.B) {
			const shards = 2
			stash := wire.NewStashLog(shards * DefaultCapacityBytes)
			eng, err := NewRelayEngine(RelayConfig[testDst]{
				Shards: shards,
				Buffer: BufferConfig{
					Release:  stash.Put,
					Recorder: metrics.NewFlightRecorder(0),
				},
				Datapath: nopDatapath{},
				Alloc:    stash.Get,
				Resolve:  func(wire.Addr, wire.ExperimentID) testDst { return "rx" },
				Mode:     ModeLive,
				Upgrade:  Upgrade{MaxAge: 500 * time.Millisecond, DeadlineBudget: time.Second},
				Emit:     func(f *Flow[testDst], _ []byte) { f.Sent(1) },
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			eng.SetSelf(rigSelf)
			eng.RegisterMetrics(metrics.NewRegistry())
			exps := make([]wire.ExperimentID, bc.flows)
			pkts := make([]wire.View, bc.flows)
			for i := range pkts {
				exps[i] = wire.NewExperimentID(777, uint8(i))
				enc, err := (&wire.Header{Experiment: exps[i]}).AppendTo(nil)
				if err != nil {
					b.Fatal(err)
				}
				pkts[i] = append(enc, make([]byte, bc.size)...)
			}
			now := rigStart
			handle := func(i int) {
				if i%64 == 0 {
					now += int64(time.Microsecond)
				}
				eng.Handle(rigSrcA, pkts[i%bc.flows], now)
				if bc.trim > 0 && i%bc.trim == bc.trim-1 {
					for _, exp := range exps {
						eng.Buffer().Trim(exp, eng.Buffer().SeqOf(exp))
					}
				}
			}
			// Warm: flow registration, the recipe, the stash log, and
			// for the evict cases a full stash whose per-flow slot slices
			// have stopped growing: twice what both shards hold.
			warm := 4 * bc.trim
			if bc.trim == 0 {
				warm = 2 * shards * DefaultCapacityBytes / bc.size
			}
			for i := 0; i < warm; i++ {
				handle(i)
			}
			if bc.trim == 0 && eng.Stats().Evicted == 0 {
				b.Fatal("the stash never filled")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				handle(i)
			}
			if st := stash.Stats(); st.Misses() > 0 {
				b.Fatalf("%d of %d stash entries were heap allocations", st.Misses(), st.Gets)
			}
		})
	}
}

// TestUpgradeModesCompile checks that every table mode a relay can install
// from config 0 compiles into a recipe, with and without an incoming trace,
// and that the upgraded packet checks and reads back as that mode.
func TestUpgradeModesCompile(t *testing.T) {
	u := Upgrade{Self: rigSelf, MaxAge: time.Second, DeadlineBudget: time.Second, DeadlineNotify: rigSelf, BackPressureSink: rigSelf}
	for _, m := range upgradeModes {
		if m.ConfigID == ModeBare.ConfigID {
			t.Fatalf("mode %q upgrades config 0 into itself", m.Name)
		}
		for _, have := range []wire.Features{0, wire.FeatTraced} {
			want := m.Features | have
			r, err := wire.CompileReshape(have, m.ConfigID, want, func(up wire.View, seq uint64, now int64) {
				StampUpgrade(up, seq, now, u)
			})
			if err != nil {
				t.Fatalf("%s from %v: %v", m.Name, have, err)
			}
			pkt, err := (&wire.Header{Features: have, Experiment: wire.NewExperimentID(7, 0)}).AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			up := r.Apply(nil, wire.View(append(pkt, "payload"...)), 9, rigStart)
			if _, err := up.Check(); err != nil {
				t.Fatalf("%s from %v: %v", m.Name, have, err)
			}
			if up.ConfigID() != m.ConfigID || up.Features() != want || string(up.Payload()) != "payload" {
				t.Fatalf("%s from %v: config %d, features %v, payload %q", m.Name, have, up.ConfigID(), up.Features(), up.Payload())
			}
		}
	}
}
