package simalloc

import (
	"sync/atomic"

	"repro/internal/clock"
)

// TCMalloc models tcmalloc's small-object path (appendix B of the paper):
// one central free list per size class, protected by a lock, plus per-thread
// caches. A cache overflow moves a batch to the central list under that
// single per-class lock — a *global* synchronization point, which is why
// the paper finds tcmalloc suffers the RBF problem even more than jemalloc
// (Table 3: TC batch 25.7M ops/s vs JE batch 43.4M).
type TCMalloc struct {
	cfg     Config
	stats   *statsArena
	central [NumSizeClasses]tcCentral
	caches  []tcThreadCache
	nextID  atomic.Uint64

	// freeObs, when non-nil, receives the Free slow path's existing stamps
	// (see FreeObserver).
	freeObs FreeObserver
}

type tcCentral struct {
	lockedList
	homeSocket int
	_          [3]int64
}

type tcThreadCache struct {
	bins [NumSizeClasses]objList
	_    [8]int64
}

// NewTCMalloc constructs the tcmalloc model for cfg.
func NewTCMalloc(cfg Config) *TCMalloc {
	cfg.validate()
	a := &TCMalloc{
		cfg:    cfg,
		stats:  newStatsArena(cfg.Threads),
		caches: make([]tcThreadCache, cfg.Threads),
	}
	for c := range a.central {
		// The central free lists live wherever the first toucher mapped
		// them; spread them across sockets round-robin.
		a.central[c].homeSocket = cfg.Cost.Socket(c * cfg.ThreadsOrOne() / NumSizeClasses)
	}
	return a
}

// ThreadsOrOne avoids a zero divisor for tiny configs.
func (c *Config) ThreadsOrOne() int {
	if c.Threads > 0 {
		return c.Threads
	}
	return 1
}

func (a *TCMalloc) Name() string { return "tcmalloc" }

// Threads returns the number of simulated threads.
func (a *TCMalloc) Threads() int { return a.cfg.Threads }

// Alloc serves from the thread cache, refilling a batch from the central
// free list (under its lock) on miss. Only the refill slow path is
// clock-stamped; cache hits cost no host clock reads.
func (a *TCMalloc) Alloc(tid int, size int) *Object {
	ts := &a.stats.perThread[tid]
	class := SizeToClass(size)
	tc := &a.caches[tid].bins[class]
	o := tc.pop()
	if o == nil {
		t0 := clock.Now()
		a.refill(tid, class, tc)
		o = tc.pop()
		ts.allocNanos += clock.Now() - t0
		ts.clockReads += 2
	}
	o.markAllocated()
	o.OwnerTID = int32(tid)
	ts.allocs++
	ts.allocBytes += int64(o.Size)
	return o
}

func (a *TCMalloc) refill(tid int, class uint8, tc *objList) {
	ts := &a.stats.perThread[tid]
	central := &a.central[class]

	touch := a.cfg.Cost.TouchCost(tid, central.homeSocket)
	hold := int64(touch+a.cfg.FillCount*a.cfg.Cost.PerObjectAlloc) * nsPerSpinUnit
	central.acquire(tid, ts, touch, hold)
	got := 0
	for got < a.cfg.FillCount {
		o := central.list.pop()
		if o == nil {
			break
		}
		spinWork(tid, a.cfg.Cost.PerObjectAlloc)
		tc.push(o)
		got++
	}
	central.mu.Unlock()
	if got > 0 {
		return
	}

	carveRun(&a.cfg, a.stats, &a.nextID, tid, class, 0, nil, tc)
}

// Free pushes into the thread cache; on overflow a batch moves to the
// central free list under the per-class global lock. Only the spill slow
// path is clock-stamped; a cache-absorbed free costs no host clock reads.
func (a *TCMalloc) Free(tid int, o *Object) {
	ts := &a.stats.perThread[tid]
	o.markFree()
	tc := &a.caches[tid].bins[o.Class]
	tc.push(o)
	ts.frees++
	ts.freeBytes += int64(o.Size)
	if tc.len() > a.cfg.TCacheCap {
		t0 := clock.Now()
		a.spill(tid, o.Class, tc)
		end := clock.Now()
		ts.freeNanos += end - t0
		ts.clockReads += 2
		if a.freeObs != nil {
			a.freeObs(tid, t0, end)
		}
	}
}

// SetFreeObserver installs fn on the Free slow path (the central spill).
func (a *TCMalloc) SetFreeObserver(fn FreeObserver) { a.freeObs = fn }

// spill moves FlushFraction of the cache to the central list while holding
// the central lock for the entire batch, mirroring tcmalloc's
// ReleaseToCentralCache.
func (a *TCMalloc) spill(tid int, class uint8, tc *objList) {
	n := int(float64(a.cfg.TCacheCap) * a.cfg.FlushFraction)
	if n > tc.len() {
		n = tc.len()
	}
	a.spillN(tid, class, tc, n)
}

// spillN moves the first n cached objects of one class to the central list
// with the full modeled cost. The overflow path (spill) passes the
// FlushFraction count; thread-exit teardown (FlushThreadCache) passes the
// whole cache.
func (a *TCMalloc) spillN(tid int, class uint8, tc *objList, n int) {
	f0 := clock.Now()
	ts := &a.stats.perThread[tid]
	ts.flushes++

	central := &a.central[class]
	// The central free list is one global synchronization point per size
	// class: every spill reserves it for the whole batch, which is why the
	// paper finds tcmalloc even more RBF-prone than jemalloc.
	touch := a.cfg.Cost.TouchCost(tid, central.homeSocket)
	perObj := a.cfg.Cost.PerObjectFree * a.cfg.Cost.RemoteFactor
	hold := int64(touch+n*perObj) * nsPerSpinUnit
	central.acquire(tid, ts, touch, hold)
	for i := 0; i < n; i++ {
		o := tc.pop()
		spinWork(tid, perObj)
		central.list.push(o)
		if o.OwnerTID != int32(tid) {
			ts.remoteFrees++
		}
	}
	central.mu.Unlock()
	ts.flushNanos += clock.Now() - f0
	ts.clockReads += 2 // the f0/end pair
}

// FlushThreadCache tears down tid's thread cache with modeled cost: every
// non-empty class spills entirely to its central free list under the
// per-class lock — tcmalloc's ThreadCache teardown. A departing thread
// pays it once on Leave.
func (a *TCMalloc) FlushThreadCache(tid int) {
	ts := &a.stats.perThread[tid]
	for class := range a.caches[tid].bins {
		tc := &a.caches[tid].bins[class]
		if tc.len() == 0 {
			continue
		}
		t0 := clock.Now()
		a.spillN(tid, uint8(class), tc, tc.len())
		ts.freeNanos += clock.Now() - t0
		ts.clockReads += 2
	}
}

// FlushThreadCaches returns every cached object to the central lists.
func (a *TCMalloc) FlushThreadCaches() {
	for t := range a.caches {
		for c := range a.caches[t].bins {
			tc := &a.caches[t].bins[c]
			central := &a.central[c]
			central.mu.Lock()
			central.list.pushAll(tc)
			central.mu.Unlock()
		}
	}
}

// SwapCost implements CostSwapper.
func (a *TCMalloc) SwapCost(cm CostModel) CostModel { return a.cfg.swapCost(cm) }

// Stats returns an aggregated snapshot.
func (a *TCMalloc) Stats() Stats { return a.stats.snapshot() }

// LiveBytes reports bytes currently held by the application.
func (a *TCMalloc) LiveBytes() int64 { return liveBytes(a.stats) }

// PeakBytes reports the high-water mark of mapped bytes.
func (a *TCMalloc) PeakBytes() int64 { return a.stats.peak.Load() }
