package live

// Steady-state allocation gates for the batch datapath, extending PR 2's
// zero-alloc discipline: once warm, batched sends and batched receives
// must not allocate, on whichever path (kernel or portable) this
// platform runs.

import (
	"net"
	"testing"

	"repro/internal/wire"
)

// TestBatchConnSendAllocs gates the raw batched write path: a warm
// WriteBatch of a full ring (GSO-coalesced where granted) performs zero
// allocations. The destination socket is never read — send-side cost
// only.
func TestBatchConnSendAllocs(t *testing.T) {
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	wconn, err := net.DialUDP("udp4", nil, sink.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer wconn.Close()
	var stats batchStats
	bc := newBatchConn(wconn, &stats, false)

	pkts := make([][]byte, batchRingSize)
	for i := range pkts {
		pkts[i] = pktOf(512, i)
	}
	bc.WriteBatch(pkts) // warm

	if n := testing.AllocsPerRun(200, func() {
		if _, err := bc.WriteBatch(pkts); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("batched send allocates %.1f/op, want 0", n)
	}
}

// TestBatchConnRecvAllocs gates the batched read path: a warm
// ReadBatch + Packets sweep over a full burst (recvmmsg + GRO splitting
// where granted) performs zero allocations. The pump runs in the same
// goroutine so nothing else allocates during measurement.
func TestBatchConnRecvAllocs(t *testing.T) {
	rconn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rconn.Close()
	wconn, err := net.DialUDP("udp4", nil, rconn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer wconn.Close()

	var rstats, wstats batchStats
	rd := newBatchConn(rconn, &rstats, true)
	wr := newBatchConn(wconn, &wstats, false)

	pkts := make([][]byte, batchRingSize)
	for i := range pkts {
		pkts[i] = pktOf(512, i)
	}
	var seen int
	pump := func() {
		if _, err := wr.WriteBatch(pkts); err != nil {
			t.Fatal(err)
		}
		got := 0
		for got < len(pkts) {
			n, err := rd.ReadBatch()
			if err != nil {
				t.Fatal(err)
			}
			rd.PacketsSrc(n, func(pkt []byte, _ wire.Addr) {
				seen += len(pkt)
				got++
			})
		}
	}
	pump() // warm

	if n := testing.AllocsPerRun(200, pump); n != 0 {
		t.Fatalf("batched recv allocates %.1f/op, want 0 (saw %d bytes)", n, seen)
	}
}

// TestSenderBatchedSendAllocs gates the whole sender fast path: encode
// into the ring, flush through the batch datapath — zero allocations
// per full ring once warm. The destination is a sink socket so no
// receiver goroutine allocates during measurement.
func TestSenderBatchedSendAllocs(t *testing.T) {
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	snd, err := NewSenderWithConfig(SenderConfig{
		Dst:        sink.LocalAddr().String(),
		Experiment: 7,
		BatchSize:  32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	payload := pktOf(1024, 3)
	ring := func() {
		for i := 0; i < 32; i++ {
			if err := snd.Send(payload, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	ring() // warm: ring buffers grow to packet size once

	if n := testing.AllocsPerRun(100, ring); n != 0 {
		t.Fatalf("batched Send allocates %.2f per full ring, want 0", n)
	}
}
