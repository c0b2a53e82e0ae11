//go:build linux && (amd64 || arm64)

package live

// Kernel-path batchConn tests: real sockets, real recvmmsg/sendmmsg,
// real GSO/GRO where the kernel grants them. Tests that need a granted
// capability skip (not fail) when the probe refuses it, so the suite
// stays green on older kernels.

import (
	"bytes"
	"errors"
	"net"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/wire"
)

// batchPair builds a bound reader and a connected writer over loopback,
// both on the kernel path.
func batchPair(t *testing.T) (rd, wr *batchConn, rstats, wstats *batchStats, raddr *net.UDPAddr) {
	t.Helper()
	rconn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rconn.Close() })
	raddr = rconn.LocalAddr().(*net.UDPAddr)
	wconn, err := net.DialUDP("udp4", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wconn.Close() })

	rstats, wstats = &batchStats{}, &batchStats{}
	rd = newBatchConn(rconn, rstats, true)
	wr = newBatchConn(wconn, wstats, false)
	return rd, wr, rstats, wstats, raddr
}

// drain reads until want packets have been collected.
func drain(t *testing.T, rd *batchConn, want int) [][]byte {
	t.Helper()
	var got [][]byte
	for len(got) < want {
		n, err := rd.ReadBatch()
		if err != nil {
			t.Fatalf("ReadBatch after %d pkts: %v", len(got), err)
		}
		rd.PacketsSrc(n, func(pkt []byte, _ wire.Addr) {
			got = append(got, append([]byte(nil), pkt...))
		})
	}
	return got
}

func TestKernelBatchCapsProbe(t *testing.T) {
	rd, wr, _, _, _ := batchPair(t)
	if !rd.Caps().Mmsg {
		t.Skip("kernel lacks recvmmsg/sendmmsg")
	}
	if !wr.Caps().Mmsg {
		t.Fatal("reader probed Mmsg but writer did not")
	}
	t.Logf("reader caps %+v, writer caps %+v", rd.Caps(), wr.Caps())
	if wr.Caps().GRO {
		t.Error("writer (wantRead=false) must not enable GRO")
	}
}

// TestKernelBatchGSOBoundaryRoundTrip sends a GSO-shaped burst — a run
// of equal-size packets closed by one shorter segment — plus unequal
// stragglers, and requires every packet back byte-identical and
// boundary-exact despite GSO coalescing on send and GRO splitting on
// receive.
func TestKernelBatchGSOBoundaryRoundTrip(t *testing.T) {
	rd, wr, rstats, wstats, _ := batchPair(t)
	if !wr.Caps().Mmsg {
		t.Skip("kernel lacks sendmmsg")
	}

	var pkts [][]byte
	// Equal-size run: GSO coalesces these (8 × 512).
	for i := 0; i < 8; i++ {
		p := pktOf(512, i)
		p[0] = byte(i) // distinguishable heads for boundary checks
		pkts = append(pkts, p)
	}
	// Short trailing segment: legal only as the last GSO segment.
	pkts = append(pkts, pktOf(100, 0xAA))
	// Unequal stragglers: must go via sendmmsg, not GSO.
	pkts = append(pkts, pktOf(64, 0xBB), pktOf(700, 0xCC))

	sent, err := wr.WriteBatch(pkts)
	if err != nil || sent != len(pkts) {
		t.Fatalf("WriteBatch = (%d, %v), want (%d, nil)", sent, err, len(pkts))
	}
	got := drain(t, rd, len(pkts))
	if len(got) != len(pkts) {
		t.Fatalf("received %d packets, want %d", len(got), len(pkts))
	}
	for i := range pkts {
		if !bytes.Equal(got[i], pkts[i]) {
			t.Fatalf("packet %d mismatch: got %d bytes (head %#x), want %d bytes (head %#x)",
				i, len(got[i]), got[i][0], len(pkts[i]), pkts[i][0])
		}
	}
	ws, rs := wstats.snapshot(), rstats.snapshot()
	if ws.SentPackets != uint64(len(pkts)) || rs.RecvPackets != uint64(len(pkts)) {
		t.Fatalf("stats: sent %d recv %d, want %d", ws.SentPackets, rs.RecvPackets, len(pkts))
	}
	if wr.Caps().GSO && ws.GSOSegments < 9 {
		t.Errorf("GSO granted but only %d segments coalesced (want the 8×512+100 run)", ws.GSOSegments)
	}
	if ws.Syscalls >= uint64(len(pkts)) {
		t.Errorf("batching saved nothing: %d syscalls for %d packets", ws.Syscalls, len(pkts))
	}
	t.Logf("writer %+v reader %+v", ws, rs)
}

// TestKernelBatchLargeWriteTo exercises the unconnected (relay-forward)
// path with more packets than one sendmmsg ring holds, forcing the
// chunking loop, with sizes that defeat GSO.
func TestKernelBatchLargeWriteTo(t *testing.T) {
	rd, _, _, _, raddr := batchPair(t)
	if !rd.Caps().Mmsg {
		t.Skip("kernel lacks recvmmsg")
	}
	// A separate unconnected writer, as the relay uses.
	wconn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer wconn.Close()
	wstats := &batchStats{}
	wr := newBatchConn(wconn, wstats, false)

	const total = 3*batchRingSize + 5
	var pkts [][]byte
	for i := 0; i < total; i++ {
		pkts = append(pkts, pktOf(100+i%97, i)) // varying sizes: no GSO runs
	}
	sent, err := wr.WriteBatchTo(pkts, raddr.AddrPort())
	if err != nil || sent != total {
		t.Fatalf("WriteBatchTo = (%d, %v), want (%d, nil)", sent, err, total)
	}
	got := drain(t, rd, total)
	for i := range pkts {
		if !bytes.Equal(got[i], pkts[i]) {
			t.Fatalf("packet %d mismatch", i)
		}
	}
	if ws := wstats.snapshot(); ws.Syscalls == 0 || ws.Syscalls > uint64((total+batchRingSize-1)/batchRingSize+2) {
		t.Errorf("unexpected syscall count %d for %d packets", ws.Syscalls, total)
	}
}

func TestGSORunBoundaries(t *testing.T) {
	mk := func(sizes ...int) [][]byte {
		var out [][]byte
		for _, s := range sizes {
			out = append(out, make([]byte, s))
		}
		return out
	}
	cases := []struct {
		name string
		pkts [][]byte
		want int
	}{
		{"uniform", mk(512, 512, 512), 3},
		{"short-tail-closes", mk(512, 512, 100, 512), 3},
		{"unequal-first", mk(512, 700), 1},
		{"single", mk(512), 1},
		{"zero-size", mk(0, 0), 1},
		{"grow-not-allowed", mk(100, 512), 1},
	}
	for _, tc := range cases {
		if got := gsoRun(tc.pkts); got != tc.want {
			t.Errorf("%s: gsoRun = %d, want %d", tc.name, got, tc.want)
		}
	}
	// Segment-count cap: maxGSOSegs small packets, then more.
	var many [][]byte
	for i := 0; i < maxGSOSegs+10; i++ {
		many = append(many, make([]byte, 64))
	}
	if got := gsoRun(many); got != maxGSOSegs {
		t.Errorf("segment cap: gsoRun = %d, want %d", got, maxGSOSegs)
	}
	// Byte cap: 1500-byte packets exceed maxGSOBytes before maxGSOSegs.
	var big [][]byte
	for i := 0; i < maxGSOSegs; i++ {
		big = append(big, make([]byte, 1500))
	}
	want := maxGSOBytes / 1500
	if got := gsoRun(big); got != want {
		t.Errorf("byte cap: gsoRun = %d, want %d", got, want)
	}
}

func TestGROSegSizeParsing(t *testing.T) {
	// Build a control buffer the way the kernel does: cmsghdr{len, level,
	// type} followed by an int segment size.
	ctrl := make([]byte, syscall.CmsgSpace(4))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
	h.Len = uint64(syscall.CmsgLen(4))
	h.Level = syscall.IPPROTO_UDP
	h.Type = udpGRO
	*(*int32)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])) = 1432
	if got := groSegSize(ctrl); got != 1432 {
		t.Fatalf("groSegSize = %d, want 1432", got)
	}
	// A non-GRO cmsg must parse to 0, not garbage.
	h.Type = 99
	if got := groSegSize(ctrl); got != 0 {
		t.Fatalf("non-GRO cmsg parsed as %d", got)
	}
	// Truncated/garbage buffers must not panic.
	for cut := 0; cut < len(ctrl); cut++ {
		groSegSize(ctrl[:cut])
	}
	if got := groSegSize(nil); got != 0 {
		t.Fatalf("nil ctrl parsed as %d", got)
	}
}

// TestKernelBatchManySmallMessages floods enough same-size packets to
// give GRO a chance to coalesce on loopback and verifies exact
// delivery counts and contents regardless of whether it did.
func TestKernelBatchManySmallMessages(t *testing.T) {
	rd, wr, rstats, _, _ := batchPair(t)
	if !wr.Caps().Mmsg {
		t.Skip("kernel lacks sendmmsg")
	}
	const rounds, per = 10, 32
	seq := 0
	var want [][]byte
	for r := 0; r < rounds; r++ {
		var pkts [][]byte
		for i := 0; i < per; i++ {
			p := pktOf(256, 0)
			p[0], p[1] = byte(seq>>8), byte(seq)
			seq++
			pkts = append(pkts, p)
			want = append(want, p)
		}
		if sent, err := wr.WriteBatch(pkts); err != nil || sent != per {
			t.Fatalf("round %d: WriteBatch = (%d, %v)", r, sent, err)
		}
	}
	got := drain(t, rd, rounds*per)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("packet %d corrupted (head %#x %#x, want %#x %#x)",
				i, got[i][0], got[i][1], want[i][0], want[i][1])
		}
	}
	rs := rstats.snapshot()
	if rs.RecvPackets != uint64(rounds*per) {
		t.Fatalf("RecvPackets = %d, want %d", rs.RecvPackets, rounds*per)
	}
	if rs.GROSplits > 0 {
		t.Logf("GRO coalesced %d packets across %d syscalls", rs.GROSplits, rs.Syscalls)
	}
}

// TestKernelBatchReadCannotBlockThread holds the first half of the
// argument that lets readFn run recvmmsg as a raw syscall: the call passes
// MSG_DONTWAIT, so it cannot wait in the kernel even on a socket whose fd
// is in blocking mode. On the idle socket it must return EAGAIN, park on
// the netpoller and come back with the 50 ms read deadline. A read without
// the flag sleeps in the kernel past the deadline, holding its P; after 5 s
// the watchdog sends the socket a datagram to wake it, and the test fails
// instead of hanging.
func TestKernelBatchReadCannotBlockThread(t *testing.T) {
	// A second P, so that the watchdog can run beside a read that holds one.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	rconn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rconn.Close()
	rd := newBatchConn(rconn, &batchStats{}, true)
	if !rd.Caps().Mmsg {
		t.Skip("kernel lacks recvmmsg")
	}
	rc, err := rconn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) { serr = syscall.SetNonblock(int(fd), false) }); err != nil || serr != nil {
		t.Fatalf("setting the fd blocking: %v, %v", err, serr)
	}
	if err := rconn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := rd.ReadBatch()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("ReadBatch on an idle blocking-mode socket returned %v after %v, want its deadline", err, time.Since(start))
		}
	case <-time.After(5 * time.Second):
		wake, err := net.DialUDP("udp4", nil, rconn.LocalAddr().(*net.UDPAddr))
		if err == nil {
			wake.Write([]byte("wake"))
			wake.Close()
			<-done
		}
		t.Fatal("ReadBatch slept in the kernel past its 50 ms deadline: recvmmsg waited on the blocking-mode fd")
	}
}
