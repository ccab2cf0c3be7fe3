package smr

import (
	"testing"

	"repro/internal/simalloc"
)

func TestPoolAllocatorRoundTrip(t *testing.T) {
	base := testAlloc(2)
	p := NewPoolAllocator(base, 8)
	if p.Name() != "pool+jemalloc" {
		t.Fatalf("Name = %q", p.Name())
	}
	o := p.Alloc(0, 64)
	if o == nil || o.State() != simalloc.StateAllocated {
		t.Fatal("alloc through pool failed")
	}
	p.Free(0, o)
	// The pooled object must never have reached the base allocator's free
	// path: it is still in the allocated state.
	if o.State() != simalloc.StateAllocated {
		t.Fatal("pooled object was freed to the base allocator")
	}
	got := p.Alloc(0, 64)
	if got != o {
		t.Fatal("pool did not recycle the pooled object")
	}
	a, f := p.PoolHits()
	if a != 1 || f != 1 {
		t.Fatalf("pool hits = %d/%d, want 1/1", a, f)
	}
}

func TestPoolAllocatorOverflowsToBase(t *testing.T) {
	base := testAlloc(1)
	p := NewPoolAllocator(base, 2)
	objs := []*simalloc.Object{p.Alloc(0, 64), p.Alloc(0, 64), p.Alloc(0, 64)}
	for _, o := range objs {
		p.Free(0, o)
	}
	// Capacity 2: the third free must reach the base allocator.
	if base.Stats().Frees != 1 {
		t.Fatalf("base frees = %d, want 1", base.Stats().Frees)
	}
	if objs[2].State() != simalloc.StateFree {
		t.Fatal("overflowed object not freed to base")
	}
}

func TestPoolAllocatorFlush(t *testing.T) {
	base := testAlloc(1)
	p := NewPoolAllocator(base, 8)
	o := p.Alloc(0, 64)
	p.Free(0, o)
	p.FlushThreadCaches()
	if o.State() != simalloc.StateFree {
		t.Fatal("flush did not return pooled object to base")
	}
	if _, f := p.PoolHits(); f != 1 {
		t.Fatal("pool hit accounting wrong after flush")
	}
}

func TestPoolAllocatorClassSeparation(t *testing.T) {
	base := testAlloc(1)
	p := NewPoolAllocator(base, 8)
	small := p.Alloc(0, 64)
	p.Free(0, small)
	big := p.Alloc(0, 240)
	if big == small {
		t.Fatal("pool crossed size classes")
	}
	if big.Size != 240 {
		t.Fatalf("big object size %d", big.Size)
	}
}

// TestPoolWithReclaimer runs a reclaimer over the pooling adapter: with a
// large pool, reclamation traffic should bypass the base allocator almost
// entirely (the VBR effect the paper's footnote 4 describes).
func TestPoolWithReclaimer(t *testing.T) {
	base := testAlloc(1)
	p := NewPoolAllocator(base, 1<<20)
	cfg := DefaultConfig(p, 1)
	cfg.BatchSize = 16
	r := mustNew(t, "debra_af", cfg)
	for i := 0; i < 500; i++ {
		r.BeginOp(0)
		o := p.Alloc(0, 240)
		r.Retire(0, o)
		r.EndOp(0)
	}
	r.Drain(0)
	allocs, frees := p.PoolHits()
	if allocs == 0 || frees == 0 {
		t.Fatalf("pool absorbed nothing: hits %d/%d", allocs, frees)
	}
	// The base allocator should have seen only the cold-start allocations.
	if base.Stats().Frees != 0 {
		t.Fatalf("base saw %d frees despite oversized pool", base.Stats().Frees)
	}
}
