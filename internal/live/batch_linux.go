//go:build linux && (amd64 || arm64)

package live

// Linux kernel-batch datapath: recvmmsg/sendmmsg plus UDP GSO/GRO.
//
// The implementation talks to the socket through syscall.RawConn so the
// batched syscalls stay integrated with the Go netpoller: the read/write
// closures issue the mmsg syscall non-blockingly and return false on
// EAGAIN, which parks the goroutine on the poller exactly like the
// stdlib single-datagram path (deadlines set on the *net.UDPConn keep
// working). All rings, iovecs, msghdr arrays, control buffers and the
// closures themselves are allocated once at setup, so the steady-state
// batched path performs zero allocations.
//
// The build is restricted to 64-bit targets because syscall.Msghdr
// field widths (Iovlen, Controllen) differ on 32-bit architectures;
// other targets use the portable fallback in batch_other.go.
//
// The stdlib syscall package predates these constants, so they are
// defined locally (ABI-stable since Linux 4.18 for the sockopts):

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"

	"repro/internal/wire"
)

const (
	// udpSegment is the UDP_SEGMENT sockopt/cmsg type: on send, a
	// per-message cmsg carrying the u16 segment size the kernel splits
	// the payload at.
	udpSegment = 103
	// udpGRO is the UDP_GRO sockopt/cmsg type: enables receive
	// coalescing; delivered datagrams carry an int cmsg with the
	// segment size when they are coalesced runs.
	udpGRO = 104
)

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>: a msghdr plus the
// kernel-written per-message byte count.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// kernelBatch is the recvmmsg/sendmmsg engine behind batchConn on a
// bare *net.UDPConn. All state is pre-allocated; the read/write
// closures are bound once and exchange parameters through struct
// fields so the hot path never allocates.
type kernelBatch struct {
	uc    *net.UDPConn
	rc    syscall.RawConn
	stats *batchStats
	caps  *BatchCaps

	// Receive ring (wantRead only): batchRingSize pooled 64 KiB
	// buffers, each with a small control buffer for the GRO cmsg and a
	// sockaddr_in slot the kernel fills with the datagram's source.
	rbufs  [][]byte
	riovs  []syscall.Iovec
	rhdrs  []mmsghdr
	rctrls [][]byte
	rnames []syscall.RawSockaddrInet4
	rlens  []int // kernel-reported datagram lengths, per slot
	rsegs  []int // GRO segment size per slot (0 = not coalesced)
	nread  int
	rerr   error
	readFn func(fd uintptr) bool

	// Send state: one mmsghdr per ring slot for sendmmsg, plus a
	// maxGSOSegs iovec array and a prebuilt UDP_SEGMENT cmsg for GSO
	// super-sends (one msghdr, many iovecs).
	siovs   []syscall.Iovec
	shdrs   []mmsghdr
	gsoCtrl []byte
	sname   syscall.RawSockaddrInet4
	svlen   int
	nsent   int
	serr    error
	writeFn func(fd uintptr) bool
}

// newKernelBatch probes uc for sendmmsg/recvmmsg and the GSO/GRO
// sockopts and, if the syscalls are present, returns a ready engine.
// A nil return means the caller must use the portable path.
func newKernelBatch(uc *net.UDPConn, stats *batchStats, wantRead bool, caps *BatchCaps) *kernelBatch {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil
	}
	var mmsg, gso, gro bool
	cerr := rc.Control(func(fd uintptr) {
		// vlen=0 calls are no-ops that still fault with ENOSYS on
		// kernels (or seccomp policies) lacking the syscalls.
		_, _, errno := syscall.Syscall6(sysSendmmsg, fd, 0, 0, 0, 0, 0)
		mmsg = errno == 0
		if mmsg {
			_, _, errno = syscall.Syscall6(syscall.SYS_RECVMMSG, fd, 0, 0, uintptr(syscall.MSG_DONTWAIT), 0, 0)
			mmsg = errno == 0
		}
		gso = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment, 0) == nil
		if wantRead {
			gro = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) == nil
		}
	})
	if cerr != nil || !mmsg {
		stats.fallbacks.Add(1)
		return nil
	}
	caps.Mmsg, caps.GSO, caps.GRO = true, gso, gro

	k := &kernelBatch{uc: uc, rc: rc, stats: stats, caps: caps}

	k.siovs = make([]syscall.Iovec, maxGSOSegs)
	k.shdrs = make([]mmsghdr, batchRingSize)
	k.gsoCtrl = make([]byte, syscall.CmsgSpace(2))
	ch := (*syscall.Cmsghdr)(unsafe.Pointer(&k.gsoCtrl[0]))
	ch.Len = uint64(syscall.CmsgLen(2))
	ch.Level = syscall.IPPROTO_UDP
	ch.Type = udpSegment
	k.writeFn = func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&k.shdrs[0])), uintptr(k.svlen), 0, 0, 0)
		if errno == syscall.EAGAIN {
			return false
		}
		if errno != 0 {
			k.serr, k.nsent = errno, 0
		} else {
			k.serr, k.nsent = nil, int(n)
		}
		return true
	}

	if wantRead {
		k.rbufs = make([][]byte, batchRingSize)
		k.riovs = make([]syscall.Iovec, batchRingSize)
		k.rhdrs = make([]mmsghdr, batchRingSize)
		k.rctrls = make([][]byte, batchRingSize)
		k.rnames = make([]syscall.RawSockaddrInet4, batchRingSize)
		k.rlens = make([]int, batchRingSize)
		k.rsegs = make([]int, batchRingSize)
		for i := range k.rhdrs {
			k.rbufs[i] = make([]byte, readBufSize)
			k.rctrls[i] = make([]byte, 64)
			k.riovs[i] = syscall.Iovec{Base: &k.rbufs[i][0], Len: readBufSize}
			k.rhdrs[i].Hdr.Iov = &k.riovs[i]
			k.rhdrs[i].Hdr.Iovlen = 1
			k.rhdrs[i].Hdr.Control = &k.rctrls[i][0]
			k.rhdrs[i].Hdr.Name = (*byte)(unsafe.Pointer(&k.rnames[i]))
		}
		k.readFn = func(fd uintptr) bool {
			n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
				uintptr(unsafe.Pointer(&k.rhdrs[0])), uintptr(len(k.rhdrs)),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			if errno == syscall.EAGAIN {
				return false
			}
			if errno != 0 {
				k.rerr, k.nread = errno, 0
			} else {
				k.rerr, k.nread = nil, int(n)
			}
			return true
		}
	}
	return k
}

// readBatch fills the ring with one recvmmsg (blocking on the poller
// until at least one datagram arrives) and returns the number of
// kernel-level datagrams received; GRO-coalesced runs are split later
// by packets.
func (k *kernelBatch) readBatch() (int, error) {
	for i := range k.rhdrs {
		// The kernel writes Controllen, Namelen and Flags on delivery;
		// reset them so a slot that received a GRO cmsg (or a source
		// address) last round does not leak it into this one.
		k.rhdrs[i].Hdr.Controllen = uint64(len(k.rctrls[i]))
		k.rhdrs[i].Hdr.Namelen = syscall.SizeofSockaddrInet4
		k.rhdrs[i].Hdr.Flags = 0
		k.rhdrs[i].Len = 0
		k.rnames[i].Family = 0
	}
	if err := k.rc.Read(k.readFn); err != nil {
		return 0, err
	}
	if k.rerr != nil {
		return 0, k.rerr
	}
	n := k.nread
	pkts := 0
	for i := 0; i < n; i++ {
		k.rlens[i] = int(k.rhdrs[i].Len)
		seg := 0
		if k.caps.GRO {
			cl := int(k.rhdrs[i].Hdr.Controllen)
			if cl > len(k.rctrls[i]) {
				cl = len(k.rctrls[i])
			}
			seg = groSegSize(k.rctrls[i][:cl])
		}
		k.rsegs[i] = seg
		if seg > 0 && k.rlens[i] > seg {
			m := (k.rlens[i] + seg - 1) / seg
			k.stats.groSplits.Add(uint64(m))
			pkts += m
		} else {
			pkts++
		}
	}
	k.stats.syscallMoved(pkts)
	k.stats.recvPkts.Add(uint64(pkts))
	return n, nil
}

// datagram visits each wire packet of ring slot i of the last readBatch
// with the slot's source address, splitting a GRO-coalesced datagram at
// its segment boundaries (the last segment may be shorter). GRO only
// coalesces datagrams of one flow, so all segments split from a slot
// share that slot's source.
func (k *kernelBatch) datagram(i int, fn func(pkt []byte, src wire.Addr)) {
	if i >= len(k.rhdrs) {
		return
	}
	var src wire.Addr
	if k.rnames[i].Family == syscall.AF_INET {
		src.IP = k.rnames[i].Addr
		// sin_port is network byte order in the raw sockaddr.
		p := k.rnames[i].Port
		src.Port = p>>8 | p<<8
	}
	buf := k.rbufs[i][:k.rlens[i]]
	seg := k.rsegs[i]
	if seg <= 0 || len(buf) <= seg {
		fn(buf, src)
		return
	}
	for off := 0; off < len(buf); off += seg {
		end := off + seg
		if end > len(buf) {
			end = len(buf)
		}
		fn(buf[off:end], src)
	}
}

// groSegSize extracts the UDP_GRO segment size from a received control
// buffer, or 0 when the datagram was not coalesced.
func groSegSize(ctrl []byte) int {
	hdrLen := syscall.CmsgLen(0)
	for len(ctrl) >= hdrLen {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
		l := int(h.Len)
		if l < hdrLen || l > len(ctrl) {
			return 0
		}
		if h.Level == syscall.IPPROTO_UDP && h.Type == udpGRO && l >= syscall.CmsgLen(4) {
			return int(*(*int32)(unsafe.Pointer(&ctrl[hdrLen])))
		}
		next := (l + 7) &^ 7 // cmsg alignment on 64-bit
		if next <= 0 || next >= len(ctrl) {
			return 0
		}
		ctrl = ctrl[next:]
	}
	return 0
}

// writeBatch sends every packet, preferring GSO super-datagrams for
// runs of equal-size packets and sendmmsg for the rest. An invalid
// (zero) addr means the connected-socket path (the sender); a valid one
// is the relay's forward leg. Returns how many packets were fully handed
// to the kernel; on error the unsent tail is pkts[sent:].
func (k *kernelBatch) writeBatch(pkts [][]byte, addr netip.AddrPort) (int, error) {
	var name *syscall.RawSockaddrInet4
	if addr.IsValid() {
		if !k.setAddr(addr) {
			// Non-IPv4 destination: the mmsg path only carries the
			// sockaddr_in fast case; fall back to single writes.
			k.stats.fallbacks.Add(1)
			sent := 0
			for _, p := range pkts {
				if _, err := k.uc.WriteToUDPAddrPort(p, addr); err != nil {
					return sent, err
				}
				sent++
				k.stats.sentPkts.Add(1)
			}
			return sent, nil
		}
		name = &k.sname
	}
	sent := 0
	for sent < len(pkts) {
		if k.caps.GSO {
			if run := gsoRun(pkts[sent:]); run >= 2 {
				err := k.sendGSO(pkts[sent:sent+run], name)
				if err == nil {
					sent += run
					continue
				}
				if gsoUnsupported(err) {
					// The kernel accepted the sockopt probe but
					// refused the real send (some NICs/paths do);
					// disable GSO for this socket and resend the
					// same run via sendmmsg.
					k.caps.GSO = false
					k.stats.fallbacks.Add(1)
					continue
				}
				return sent, err
			}
		}
		n := len(pkts) - sent
		if n > batchRingSize {
			n = batchRingSize
		}
		m, err := k.sendMmsg(pkts[sent:sent+n], name)
		sent += m
		if err != nil {
			return sent, err
		}
		if m == 0 {
			// sendmmsg reported success but moved nothing; avoid a
			// livelock by surfacing it.
			return sent, syscall.EIO
		}
	}
	return sent, nil
}

// gsoRun returns how many packets from the front of pkts can ride one
// GSO super-datagram: a run of equal-size packets (optionally closed by
// one shorter trailing segment) within the kernel's segment-count and
// total-size limits.
func gsoRun(pkts [][]byte) int {
	seg := len(pkts[0])
	if seg == 0 || seg > 0xffff {
		return 1
	}
	run, total := 1, seg
	for run < len(pkts) && run < maxGSOSegs {
		l := len(pkts[run])
		if l == 0 || l > seg || total+l > maxGSOBytes {
			break
		}
		run++
		total += l
		if l < seg {
			break // a short segment is only valid as the last one
		}
	}
	return run
}

// sendGSO writes run packets as one sendmmsg of a single msghdr whose
// iovec array scatters the packets and whose UDP_SEGMENT cmsg tells
// the kernel where to split.
func (k *kernelBatch) sendGSO(pkts [][]byte, name *syscall.RawSockaddrInet4) error {
	for i, p := range pkts {
		k.siovs[i] = syscall.Iovec{Base: &p[0], Len: uint64(len(p))}
	}
	*(*uint16)(unsafe.Pointer(&k.gsoCtrl[syscall.CmsgLen(0)])) = uint16(len(pkts[0]))
	h := &k.shdrs[0]
	h.Hdr = syscall.Msghdr{
		Iov:        &k.siovs[0],
		Iovlen:     uint64(len(pkts)),
		Control:    &k.gsoCtrl[0],
		Controllen: uint64(len(k.gsoCtrl)),
	}
	if name != nil {
		h.Hdr.Name = (*byte)(unsafe.Pointer(name))
		h.Hdr.Namelen = syscall.SizeofSockaddrInet4
	}
	if err := k.submit(1); err != nil {
		return err
	}
	if k.nsent != 1 {
		return syscall.EIO
	}
	k.stats.syscallMoved(len(pkts))
	k.stats.gsoSegs.Add(uint64(len(pkts)))
	k.stats.sentPkts.Add(uint64(len(pkts)))
	return nil
}

// sendMmsg writes up to batchRingSize packets with one sendmmsg,
// returning how many the kernel accepted (a partial count is not an
// error; the caller retries the tail).
func (k *kernelBatch) sendMmsg(pkts [][]byte, name *syscall.RawSockaddrInet4) (int, error) {
	for i, p := range pkts {
		var base *byte
		if len(p) > 0 {
			base = &p[0]
		}
		k.siovs[i] = syscall.Iovec{Base: base, Len: uint64(len(p))}
		h := &k.shdrs[i]
		h.Hdr = syscall.Msghdr{Iov: &k.siovs[i], Iovlen: 1}
		if name != nil {
			h.Hdr.Name = (*byte)(unsafe.Pointer(name))
			h.Hdr.Namelen = syscall.SizeofSockaddrInet4
		}
	}
	if err := k.submit(len(pkts)); err != nil {
		return 0, err
	}
	n := k.nsent
	k.stats.syscallMoved(n)
	k.stats.sentPkts.Add(uint64(n))
	return n, nil
}

// submit runs the pre-bound sendmmsg closure for the first vlen
// entries of shdrs, parking on the poller while the socket is
// unwritable (write deadlines apply).
func (k *kernelBatch) submit(vlen int) error {
	k.svlen = vlen
	if err := k.rc.Write(k.writeFn); err != nil {
		return err
	}
	return k.serr
}

// setAddr caches addr as a raw sockaddr_in for the msghdr Name field.
// Returns false for non-IPv4 addresses.
func (k *kernelBatch) setAddr(addr netip.AddrPort) bool {
	ip := addr.Addr()
	if !ip.Is4() {
		return false
	}
	k.sname.Family = syscall.AF_INET
	// sin_port is in network byte order.
	p := addr.Port()
	k.sname.Port = p>>8 | p<<8
	k.sname.Addr = ip.As4()
	return true
}

// gsoUnsupported reports whether a send error means the kernel or path
// cannot do GSO at all (as opposed to a transient failure).
func gsoUnsupported(err error) bool {
	return err == syscall.EINVAL || err == syscall.EOPNOTSUPP || err == syscall.EIO
}
