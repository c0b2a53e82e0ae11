package main

import (
	"math"
	"net"
	"sync"
	"time"
)

// The machine this runs on is a few cores of a shared host, and how fast
// they are changes under the benchmark's feet: with the same binary and the
// same inputs, CPU per message moves by 15–40 % from one minute to the next
// as the neighbours come and go, and goodput moves with it. Nothing is
// reported as stolen while it happens. A benchmark that publishes those
// numbers as they fall cannot tell a regression from a busy neighbour.
//
// So every round carries a probe: a small fixed piece of work that belongs
// to the benchmark, not to the program under test, timed every probePeriod
// while the round's closed loop runs. How slow the probe is says how slow
// the machine is at that moment, and the three gated timings are published
// at the reference machine speed (speedFactor). The probe's own CPU time is
// taken out of the round's.
const (
	probePeriod = 20 * time.Millisecond
	// probePings and probeChurn size the probe's two halves: datagrams sent
	// to and read back from its own loopback socket (the kernel's UDP path,
	// which is where the trio spends a third of its CPU), and map updates
	// plus small allocations (the Go runtime's hashing and allocator, where
	// the stash and the flow table spend theirs). Together ~250 µs, about
	// 1 % of one core.
	probePings = 48
	probeChurn = 3000
	probeAlloc = 64

	// probeRefUs is about what the probe takes on this class of machine on
	// a calm day (its median over 200 calm rounds was 212 µs). It only fixes
	// the scale: published values are what the program would do on a
	// machine where the probe takes this long.
	probeRefUs = 230.0
	// speedElasticity is how much of the probe's slow-down the trio shares.
	// Over 96 rounds of the three daq1k_* workloads in a restless hour,
	// log(CPU per message) against log(probe time) had slope 0.37–0.56
	// (r = 0.74–0.89), and log(goodput) the same with the sign turned. The
	// probe starts cold every 20 ms and the trio runs hot, which is why it
	// is not 1. README, "Machine speed".
	speedElasticity = 0.5
)

// speedFactor is by how much the machine slowed the trio down when the
// probe took probeUs: goodput is multiplied by it, times are divided by
// it. Zero samples (probeUs 0) correct nothing.
func speedFactor(probeUs float64) float64 {
	if probeUs <= 0 {
		return 1
	}
	return math.Pow(probeUs/probeRefUs, speedElasticity)
}

// speedProbe runs the probe on a goroutine of its own until close.
type speedProbe struct {
	mu      sync.Mutex
	samples []float64 // µs per probe, since the last take
	busy    time.Duration

	pc   net.PacketConn
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func startSpeedProbe() (*speedProbe, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &speedProbe{pc: pc, stop: make(chan struct{})}
	p.wg.Add(1)
	go p.run()
	return p, nil
}

var probeSink []byte // keeps the probe's allocations from being optimised away

func (p *speedProbe) run() {
	defer p.wg.Done()
	pkt := make([]byte, 1024)
	buf := make([]byte, 2048)
	table := make(map[uint32]uint64, 4096)
	for i := uint32(0); i < 4096; i++ {
		table[i] = uint64(i)
	}
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		// Loopback delivers inside the send call, so each read finds its
		// datagram waiting; the deadline only keeps a lost one from
		// hanging the probe.
		p.pc.SetReadDeadline(time.Now().Add(time.Second))
		ok := true
		began := time.Now()
		for i := 0; i < probePings && ok; i++ {
			_, err := p.pc.WriteTo(pkt, p.pc.LocalAddr())
			if err == nil {
				_, _, err = p.pc.ReadFrom(buf)
			}
			ok = err == nil
		}
		for i := uint32(0); i < probeChurn; i++ {
			k := i * 2654435761 % 4096
			table[k] = table[(k+1)%4096] + 1
		}
		for i := 0; i < probeAlloc; i++ {
			probeSink = make([]byte, 1024)
		}
		took := time.Since(began)
		p.mu.Lock()
		p.busy += took
		if ok {
			p.samples = append(p.samples, float64(took)/1e3)
		}
		p.mu.Unlock()
	}
}

// take returns the median probe time (µs; 0 if there was none) and the CPU
// time the probe used since the previous take, and starts a new interval.
func (p *speedProbe) take() (medianUs float64, busy time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	medianUs, busy = median(p.samples), p.busy
	p.samples, p.busy = p.samples[:0], 0
	return medianUs, busy
}

// close stops the probe; a second call does nothing.
func (p *speedProbe) close() {
	p.once.Do(func() {
		close(p.stop)
		p.wg.Wait()
		p.pc.Close()
	})
}
