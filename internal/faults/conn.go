package faults

import (
	"net"
	"net/netip"
	"sync"
	"time"
)

// PacketConn is the subset of *net.UDPConn the live path uses; it matches
// internal/live's UDPConn interface structurally, so a wrapped conn slots
// into any live role via its Wrap config hook without an import cycle.
type PacketConn interface {
	ReadFromUDP(b []byte) (int, *net.UDPAddr, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	Write(b []byte) (int, error)
	LocalAddr() net.Addr
	Close() error
	SetReadBuffer(bytes int) error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Conn applies a fault plan to a real UDP socket's egress: written packets
// are dropped, corrupted, duplicated or delayed exactly as the plan
// dictates, while reads pass through untouched. Injecting on egress keeps
// the schedule a function of packet index (send order is deterministic;
// kernel receive interleaving is not).
type Conn struct {
	inner PacketConn
	plan  *Plan
	start time.Time

	mu     sync.Mutex
	closed bool
}

// WrapConn wraps inner so every write is subjected to the plan. The flap
// clock starts at wrap time.
func WrapConn(inner PacketConn, p *Plan) *Conn {
	return &Conn{inner: inner, plan: p, start: time.Now()}
}

// ReadFromUDP passes through to the wrapped socket.
func (c *Conn) ReadFromUDP(b []byte) (int, *net.UDPAddr, error) {
	return c.inner.ReadFromUDP(b)
}

// WriteToUDPAddrPort applies the fault plan, then forwards survivors.
func (c *Conn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	return c.faultedWrite(b, func(p []byte) (int, error) { return c.inner.WriteToUDPAddrPort(p, addr) })
}

// Write applies the fault plan on a connected socket.
func (c *Conn) Write(b []byte) (int, error) {
	return c.faultedWrite(b, c.inner.Write)
}

func (c *Conn) faultedWrite(b []byte, send func([]byte) (int, error)) (int, error) {
	d := c.plan.Decide(time.Since(c.start))
	if d.Drop {
		// A lossy network looks like success to the sender.
		return len(b), nil
	}
	pkt := d.FlipBit(b)
	n := len(b)
	emit := func(p []byte) (int, error) { return send(p) }
	if d.Delay > 0 {
		// Deliver late from a timer goroutine so subsequent writes
		// overtake this packet — a real reorder on the real socket.
		cp := append([]byte(nil), pkt...)
		time.AfterFunc(d.Delay, func() {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if !closed {
				emit(cp)
			}
		})
		if d.Duplicate {
			return emit(pkt)
		}
		return n, nil
	}
	if d.Duplicate {
		if _, err := emit(pkt); err != nil {
			return 0, err
		}
	}
	if _, err := emit(pkt); err != nil {
		return 0, err
	}
	return n, nil
}

// LocalAddr passes through.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// SetReadBuffer passes through.
func (c *Conn) SetReadBuffer(bytes int) error { return c.inner.SetReadBuffer(bytes) }

// SetReadDeadline passes through.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline passes through.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// Close stops delayed deliveries and closes the wrapped socket.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.inner.Close()
}
