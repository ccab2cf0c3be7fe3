package smr

import (
	"sync/atomic"

	"repro/internal/simalloc"
)

// PoolAllocator implements the optimization the paper deliberately does
// *not* perform (Section 3.3, footnotes 3-4): serving allocations directly
// from the reclaimer's freeable list, which turns amortized freeing into
// object pooling and bypasses the allocator almost entirely. The paper
// notes this explains why pooling reclaimers like VBR beat older EBRs; this
// adapter lets the ablation quantify how much of AF's win comes from making
// allocator interaction fast versus avoiding it altogether.
//
// PoolAllocator wraps a base allocator. Alloc first tries the calling
// thread's pool of same-class recycled objects; Free feeds the pool up to
// its capacity and overflows to the base allocator. It implements
// simalloc.Allocator, so it drops into any data structure or workload.
type PoolAllocator struct {
	base simalloc.Allocator
	caps int
	th   []poolThread

	pooledAllocs atomic.Int64
	pooledFrees  atomic.Int64
}

type poolThread struct {
	bins [simalloc.NumSizeClasses][]*simalloc.Object
	_    [8]int64
}

// NewPoolAllocator wraps base with per-thread per-class pools of the given
// capacity.
func NewPoolAllocator(base simalloc.Allocator, capacity int) *PoolAllocator {
	if capacity <= 0 {
		capacity = 4096
	}
	return &PoolAllocator{
		base: base,
		caps: capacity,
		th:   make([]poolThread, base.Threads()),
	}
}

// Name identifies the adapter and its base.
func (p *PoolAllocator) Name() string { return "pool+" + p.base.Name() }

// Threads returns the simulated thread count.
func (p *PoolAllocator) Threads() int { return p.base.Threads() }

// Alloc serves from the thread's pool when possible; pool hits skip the
// allocator entirely (no thread-cache traffic, no bin locks, no cost-model
// work — the pooling effect the paper's footnote describes).
func (p *PoolAllocator) Alloc(tid int, size int) *simalloc.Object {
	class := simalloc.SizeToClass(size)
	bin := &p.th[tid].bins[class]
	if n := len(*bin); n > 0 {
		o := (*bin)[n-1]
		(*bin)[n-1] = nil
		*bin = (*bin)[:n-1]
		p.pooledAllocs.Add(1)
		o.OwnerTID = int32(tid)
		return o
	}
	return p.base.Alloc(tid, size)
}

// Free pools o unless the pool is full, in which case it falls through to
// the base allocator.
//
// Pooled objects stay in the allocated state: from the base allocator's
// perspective they are still live, exactly as with real object pooling
// (the memory is never returned, so the allocator can never reuse or
// unmap it).
func (p *PoolAllocator) Free(tid int, o *simalloc.Object) {
	bin := &p.th[tid].bins[o.Class]
	if len(*bin) < p.caps {
		*bin = append(*bin, o)
		p.pooledFrees.Add(1)
		return
	}
	p.base.Free(tid, o)
}

// FlushThreadCache returns tid's pooled objects to the base allocator
// through its ordinary (costed) free path, then tears down the base's
// cache for the slot — a departing thread's pool does not outlive it.
func (p *PoolAllocator) FlushThreadCache(tid int) {
	for c := range p.th[tid].bins {
		for _, o := range p.th[tid].bins[c] {
			p.base.Free(tid, o)
		}
		p.th[tid].bins[c] = nil
	}
	p.base.FlushThreadCache(tid)
}

// FlushThreadCaches returns every pooled object to the base allocator and
// flushes the base's own caches.
func (p *PoolAllocator) FlushThreadCaches() {
	for tid := range p.th {
		for c := range p.th[tid].bins {
			for _, o := range p.th[tid].bins[c] {
				p.base.Free(tid, o)
			}
			p.th[tid].bins[c] = nil
		}
	}
	p.base.FlushThreadCaches()
}

// SetFreeObserver installs fn on the base allocator: a pool-absorbed free
// has no slow path to observe, and a pool overflow's base.Free stamps are
// exactly what the observer wants.
func (p *PoolAllocator) SetFreeObserver(fn simalloc.FreeObserver) { p.base.SetFreeObserver(fn) }

// SwapCost implements simalloc.CostSwapper by forwarding to the base, whose
// table is the only one there is: the pool itself charges nothing. Over a
// base that cannot swap, nothing changes and cm comes back.
func (p *PoolAllocator) SwapCost(cm simalloc.CostModel) simalloc.CostModel {
	if sw, ok := p.base.(simalloc.CostSwapper); ok {
		return sw.SwapCost(cm)
	}
	return cm
}

// Stats returns the base allocator's snapshot; pool hits by design never
// reach it. PoolHits reports the bypassed traffic.
func (p *PoolAllocator) Stats() simalloc.Stats { return p.base.Stats() }

// PoolHits reports how many allocations and frees the pool absorbed.
func (p *PoolAllocator) PoolHits() (allocs, frees int64) {
	return p.pooledAllocs.Load(), p.pooledFrees.Load()
}

// LiveBytes includes pooled objects, which are live from the base
// allocator's perspective.
func (p *PoolAllocator) LiveBytes() int64 { return p.base.LiveBytes() }

// PeakBytes reports the base allocator's mapped high-water mark.
func (p *PoolAllocator) PeakBytes() int64 { return p.base.PeakBytes() }

var _ simalloc.Allocator = (*PoolAllocator)(nil)
