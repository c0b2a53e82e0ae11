package wire

import (
	"sync"
	"testing"
	"time"
)

func TestPoolSizeClasses(t *testing.T) {
	p := NewBufferPool()
	cases := []struct{ n, wantCap int }{
		{1, 256}, {256, 256}, {257, 1 << 10}, {1024, 1 << 10},
		{1500, 2 << 10}, {4096, 4 << 10}, {9000, 9216}, {9216, 9216},
		{9217, 16 << 10}, {64 << 10, 64 << 10},
	}
	for _, c := range cases {
		b := p.Get(c.n)
		if len(b) != c.n {
			t.Fatalf("Get(%d): len %d", c.n, len(b))
		}
		if cap(b) != c.wantCap {
			t.Fatalf("Get(%d): cap %d, want class %d", c.n, cap(b), c.wantCap)
		}
		p.Release(b)
	}
}

func TestPoolOversizedGet(t *testing.T) {
	p := NewBufferPool()
	b := p.Get(1 << 20)
	if len(b) != 1<<20 {
		t.Fatalf("len %d", len(b))
	}
	if st := p.Stats(); st.Oversize != 1 || st.Gets != 1 || st.Misses() != 1 {
		t.Fatalf("stats %+v", st)
	}
	p.Release(b) // must be a silent drop, not a panic or a poisoned class
}

// TestPoolStats verifies the hit/miss accounting: a cold Get misses, a Get
// after Release hits.
func TestPoolStats(t *testing.T) {
	p := NewBufferPool()
	b := p.Get(1000) // cold: miss
	p.Release(b)
	p.Get(1000) // warm: hit
	st := p.Stats()
	if st.Gets != 2 {
		t.Fatalf("Gets %d, want 2", st.Gets)
	}
	if st.Hits == 0 {
		t.Skip("sync.Pool did not return the released buffer (GC ran); skipping")
	}
	if st.Hits != 1 || st.Misses() != 1 {
		t.Fatalf("Hits %d Misses %d, want 1/1", st.Hits, st.Misses())
	}
}

// TestPoolReuse verifies a released buffer is actually recycled — the
// property the zero-allocation steady state rests on. sync.Pool gives no
// hard guarantee across GCs, but an immediate Get on the same goroutine
// must see the released buffer.
func TestPoolReuse(t *testing.T) {
	p := NewBufferPool()
	a := p.Get(1000)
	a[0] = 0x5A
	pa := &a[0]
	p.Release(a)
	b := p.Get(500)
	if &b[0] != pa {
		t.Skip("sync.Pool did not return the released buffer (GC ran); skipping")
	}
	if cap(b) != 1<<10 {
		t.Fatalf("recycled cap %d", cap(b))
	}
}

// TestPoolGetReleaseZeroAlloc locks in that the steady-state Get/Release
// cycle allocates nothing (the node-recycling layer exists exactly so that
// Release does not allocate a slice header).
func TestPoolGetReleaseZeroAlloc(t *testing.T) {
	p := NewBufferPool()
	// Warm one buffer and one node per involved class.
	p.Release(p.Get(1000))
	if avg := testing.AllocsPerRun(200, func() {
		b := p.Get(1000)
		p.Release(b)
	}); avg != 0 {
		t.Fatalf("Get/Release allocates %.1f allocs/op, want 0", avg)
	}
}

func TestPoolCheckedDoubleRelease(t *testing.T) {
	p := NewBufferPool()
	p.SetChecked(true)
	b := p.Get(100)
	p.Release(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic in checked mode")
		}
	}()
	p.Release(b)
}

func TestPoolCheckedForeignRelease(t *testing.T) {
	p := NewBufferPool()
	p.SetChecked(true)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign Release did not panic in checked mode")
		}
	}()
	p.Release(make([]byte, 256, 256))
}

func TestPoolOutstanding(t *testing.T) {
	p := NewBufferPool()
	p.SetChecked(true)
	a, b := p.Get(100), p.Get(2000)
	if got := p.Outstanding(); got != 2 {
		t.Fatalf("Outstanding %d, want 2", got)
	}
	p.Release(a)
	p.Release(b)
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("Outstanding %d, want 0", got)
	}
}

// TestPoolConcurrent hammers the pool from many goroutines; run with -race
// this is the pool's data-race test.
func TestPoolConcurrent(t *testing.T) {
	p := NewBufferPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sizes := []int{64, 700, 1500, 4000, 9000, 60000}
			for i := 0; i < 2000; i++ {
				n := sizes[(i+g)%len(sizes)]
				b := p.Get(n)
				if len(b) != n {
					t.Errorf("len %d want %d", len(b), n)
					return
				}
				b[0] = byte(i)
				b[n-1] = byte(g)
				p.Release(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolUncheckedTakesNoLock holds the checking mutex while another
// goroutine uses the pool with checking off: the unchecked Get and Release
// must not wait for it.
func TestPoolUncheckedTakesNoLock(t *testing.T) {
	p := NewBufferPool()
	p.mu.Lock()
	defer p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Release(p.Get(100))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Get/Release with checking off blocked on the pool mutex")
	}
}
