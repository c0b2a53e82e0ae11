//go:build !linux || (!amd64 && !arm64)

package live

import (
	"net"
	"net/netip"

	"repro/internal/wire"
)

// kernelBatch is unavailable on this platform (no recvmmsg/sendmmsg,
// or a 32-bit msghdr ABI the batch path does not carry); batchConn
// serves every operation through the portable loop-over-single-syscall
// path instead. The stubs exist only so batch.go compiles everywhere —
// newKernelBatch always returns nil here, so none of the methods are
// ever invoked.
type kernelBatch struct{}

func newKernelBatch(*net.UDPConn, *batchStats, bool, *BatchCaps) *kernelBatch { return nil }

func (*kernelBatch) readBatch() (int, error)                          { return 0, nil }
func (*kernelBatch) datagram(int, func([]byte, wire.Addr))            {}
func (*kernelBatch) writeBatch([][]byte, netip.AddrPort) (int, error) { return 0, nil }
