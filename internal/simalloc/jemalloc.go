package simalloc

import (
	"sync/atomic"

	"repro/internal/clock"
)

// JEMalloc models jemalloc 5.x's small-object path as described in the
// paper:
//
//   - 4×T arenas; each thread is assigned a home arena and allocates from it.
//   - Per-thread caches (tcaches) per size class. Free pushes into the
//     tcache; when the cache overflows, ~3/4 of it is flushed.
//   - The flush locks the bin of the first object's arena, then walks the
//     whole flushed batch under that lock, returning every object belonging
//     to that bin; it repeats with the next unreturned object's bin. An
//     object freed by a thread other than its birth-arena's owner is a
//     remote free and pays the NUMA touch cost.
//
// This is the structure that makes freeing large batches pathological: the
// lock hold time is proportional to the entire flushed batch, and with many
// threads flushing concurrently the bin mutexes convoy (the RBF problem).
type JEMalloc struct {
	cfg    Config
	stats  *statsArena
	arenas []jeArena
	caches []jeTCache
	nextID atomic.Uint64

	// flushHoldProbe, when non-nil, observes every flush's virtual lock-hold
	// reservation (arena, hold ns) before it is booked. Test instrumentation
	// for pinning the modeled-cost formula; nil in production.
	flushHoldProbe func(arena int32, holdNs int64)

	// freeObs, when non-nil, receives the Free slow path's existing stamps
	// (see FreeObserver); the timeline recorder's free-call events ride on
	// it for free.
	freeObs FreeObserver
}

type jeArena struct {
	homeSocket int
	bins       [NumSizeClasses]jeBin
}

type jeBin struct {
	lockedList
	_ [4]int64 // keep bins on separate cache lines
}

type jeTCacheBin struct {
	list objList
}

type jeTCache struct {
	bins [NumSizeClasses]jeTCacheBin
	// Flush scratch: the batch being returned, grouped by destination arena
	// in one pass. arenaSlot maps an arena index to its group for the
	// current flush; arenaSeen stamps which slots are valid for flushSeq, so
	// grouping needs no per-flush clearing.
	groups    []jeFlushGroup
	arenaSlot []int32
	arenaSeen []uint32
	flushSeq  uint32
	_         [6]int64
}

// jeFlushGroup is one destination arena's share of a flushed batch: a FIFO
// chain through Object.next that preserves batch order.
type jeFlushGroup struct {
	arena      int32
	n          int
	head, tail *Object
}

// NewJEMalloc constructs the jemalloc model for cfg.
func NewJEMalloc(cfg Config) *JEMalloc {
	cfg.validate()
	a := &JEMalloc{
		cfg:    cfg,
		stats:  newStatsArena(cfg.Threads),
		arenas: make([]jeArena, cfg.ArenasPerThread*cfg.Threads),
		caches: make([]jeTCache, cfg.Threads),
	}
	for i := range a.arenas {
		// Arena i primarily serves thread i / ArenasPerThread; home the
		// arena on that thread's socket.
		a.arenas[i].homeSocket = cfg.Cost.Socket(i / cfg.ArenasPerThread)
	}
	for i := range a.caches {
		a.caches[i].arenaSlot = make([]int32, len(a.arenas))
		a.caches[i].arenaSeen = make([]uint32, len(a.arenas))
	}
	return a
}

func (a *JEMalloc) Name() string { return "jemalloc" }

// Threads returns the number of simulated threads.
func (a *JEMalloc) Threads() int { return a.cfg.Threads }

// homeArena returns the arena a thread allocates from. With 4 arenas per
// thread each thread gets a distinct arena (jemalloc hashes threads to
// arenas; with 4T arenas collisions are rare, so a distinct assignment is
// the faithful common case).
func (a *JEMalloc) homeArena(tid int) int32 {
	return int32(tid * a.cfg.ArenasPerThread % len(a.arenas))
}

// Alloc serves tid from its tcache, refilling from the home arena bin on
// miss and mapping a fresh page run when the bin is also empty. Only the
// refill slow path is clock-stamped: a tcache hit is a pop plus counter
// bumps, so stamping it would measure mostly the stamps themselves (the
// measurement tax PR 4's host-overhead surgery removes).
func (a *JEMalloc) Alloc(tid int, size int) *Object {
	ts := &a.stats.perThread[tid]
	class := SizeToClass(size)
	tc := &a.caches[tid].bins[class]
	o := tc.list.pop()
	if o == nil {
		t0 := clock.Now()
		a.refill(tid, class, tc)
		o = tc.list.pop()
		ts.allocNanos += clock.Now() - t0
		ts.clockReads += 2
	}
	o.markAllocated()
	o.OwnerTID = int32(tid)
	ts.allocs++
	ts.allocBytes += int64(o.Size)
	return o
}

func (a *JEMalloc) refill(tid int, class uint8, tc *jeTCacheBin) {
	ts := &a.stats.perThread[tid]
	arenaIdx := a.homeArena(tid)
	arena := &a.arenas[arenaIdx]
	bin := &arena.bins[class]

	touch := a.cfg.Cost.TouchCost(tid, arena.homeSocket)
	hold := int64(touch+a.cfg.FillCount*a.cfg.Cost.PerObjectAlloc) * nsPerSpinUnit
	bin.acquire(tid, ts, touch, hold)
	got := 0
	for got < a.cfg.FillCount {
		o := bin.list.pop()
		if o == nil {
			break
		}
		spinWork(tid, a.cfg.Cost.PerObjectAlloc)
		tc.list.push(o)
		got++
	}
	bin.mu.Unlock()
	if got > 0 {
		return
	}

	// Bin empty: map a fresh page run and carve it into objects.
	carveRun(&a.cfg, a.stats, &a.nextID, tid, class, arenaIdx, nil, &tc.list)
}

// Free pushes o into tid's tcache and flushes ~FlushFraction of the cache
// when it overflows, following je_tcache_bin_flush_small. Like Alloc, only
// the flush slow path is clock-stamped; a cache-absorbed free costs no host
// clock reads at all.
func (a *JEMalloc) Free(tid int, o *Object) {
	ts := &a.stats.perThread[tid]
	o.markFree()
	tc := &a.caches[tid].bins[o.Class]
	tc.list.push(o)
	ts.frees++
	ts.freeBytes += int64(o.Size)
	if tc.list.len() > a.cfg.TCacheCap {
		t0 := clock.Now()
		a.flush(tid, o.Class, tc)
		end := clock.Now()
		ts.freeNanos += end - t0
		ts.clockReads += 2
		if a.freeObs != nil {
			a.freeObs(tid, t0, end)
		}
	}
}

// SetFreeObserver installs fn on the Free slow path (the tcache flush).
func (a *JEMalloc) SetFreeObserver(fn FreeObserver) { a.freeObs = fn }

// flush returns FlushFraction of the tcache bin to the owning arena bins.
// The locking discipline matches the paper's description of jemalloc: lock
// the bin of the first object, then iterate over the entire batch while
// holding the lock, returning every object that belongs to that bin; repeat
// until the batch is empty.
//
// The *modeled* cost is exactly that structure — each round's virtual lock
// hold covers a walk of the whole batch (touch + matched*perObj + n*2) — but
// the *host* work is O(n): the batch is grouped by destination arena in one
// pass instead of rescanning the remaining batch once per round. Groups are
// created in first-appearance order and each group chain preserves batch
// order, so bins are locked in the same sequence and receive the same
// objects in the same order as the scan-per-round structure; the modeled
// statistics are bit-identical (pinned by TestFlushGroupingInvariance).
func (a *JEMalloc) flush(tid int, class uint8, tc *jeTCacheBin) {
	n := int(float64(a.cfg.TCacheCap) * a.cfg.FlushFraction)
	if n > tc.list.len() {
		n = tc.list.len()
	}
	a.flushN(tid, class, tc, n)
}

// flushN returns the first n cached objects of one tcache bin to their
// arenas with the full modeled cost. The overflow path (flush) passes the
// FlushFraction count; thread-exit teardown (FlushThreadCache) passes the
// whole bin.
func (a *JEMalloc) flushN(tid int, class uint8, tc *jeTCacheBin, n int) {
	f0 := clock.Now()
	ts := &a.stats.perThread[tid]
	ts.flushes++

	cache := &a.caches[tid]
	cache.flushSeq++
	if cache.flushSeq == 0 { // stamp wraparound: invalidate every slot
		clear(cache.arenaSeen)
		cache.flushSeq = 1
	}
	groups := cache.groups[:0]
	for i := 0; i < n; i++ {
		o := tc.list.pop()
		ar := o.Arena
		if cache.arenaSeen[ar] != cache.flushSeq {
			cache.arenaSeen[ar] = cache.flushSeq
			cache.arenaSlot[ar] = int32(len(groups))
			groups = append(groups, jeFlushGroup{arena: ar})
		}
		g := &groups[cache.arenaSlot[ar]]
		if g.tail == nil {
			g.head = o
		} else {
			g.tail.next = o
		}
		g.tail = o
		g.n++
	}

	myArena := a.homeArena(tid)
	for gi := range groups {
		g := &groups[gi]
		arena := &a.arenas[g.arena]
		bin := &arena.bins[class]

		// Remote bins pay the NUMA factor on both the lock touch and the
		// per-object bookkeeping done while holding the lock.
		touch := a.cfg.Cost.TouchCost(tid, arena.homeSocket)
		perObj := a.cfg.Cost.PerObjectFree
		if myArena != g.arena {
			perObj *= a.cfg.Cost.RemoteFactor
		}
		// The lock is (virtually) held while scanning the entire batch and
		// returning every matching object — the je_tcache_bin_flush_small
		// structure that makes large flushes convoy.
		hold := int64(touch+g.n*perObj+n*2) * nsPerSpinUnit
		if a.flushHoldProbe != nil {
			a.flushHoldProbe(g.arena, hold)
		}
		bin.acquire(tid, ts, touch, hold)
		remote := g.arena != myArena
		for o := g.head; o != nil; {
			next := o.next
			o.next = nil
			spinWork(tid, perObj)
			bin.list.push(o)
			if remote {
				ts.remoteFrees++
			}
			o = next
		}
		bin.mu.Unlock()
		g.head, g.tail = nil, nil // drop object references from the scratch
	}
	cache.groups = groups[:0]
	ts.flushNanos += clock.Now() - f0
	ts.clockReads += 2 // the f0/end pair
}

// FlushThreadCache tears down tid's tcache with modeled cost: every
// non-empty bin is returned to its arenas through the same locking
// discipline as an overflow flush, but covering the whole bin — jemalloc's
// tcache_destroy path. A departing thread pays it once on Leave.
func (a *JEMalloc) FlushThreadCache(tid int) {
	ts := &a.stats.perThread[tid]
	for class := range a.caches[tid].bins {
		tc := &a.caches[tid].bins[class]
		if tc.list.len() == 0 {
			continue
		}
		t0 := clock.Now()
		a.flushN(tid, uint8(class), tc, tc.list.len())
		ts.freeNanos += clock.Now() - t0
		ts.clockReads += 2
	}
}

// FlushThreadCaches returns every cached object to its arena bin without
// charging simulated cost; used between trials.
func (a *JEMalloc) FlushThreadCaches() {
	for t := range a.caches {
		for c := range a.caches[t].bins {
			tc := &a.caches[t].bins[c]
			for {
				o := tc.list.pop()
				if o == nil {
					break
				}
				bin := &a.arenas[o.Arena].bins[o.Class]
				bin.mu.Lock()
				bin.list.push(o)
				bin.mu.Unlock()
			}
		}
	}
}

// SwapCost implements CostSwapper.
func (a *JEMalloc) SwapCost(cm CostModel) CostModel { return a.cfg.swapCost(cm) }

// Stats returns an aggregated snapshot.
func (a *JEMalloc) Stats() Stats { return a.stats.snapshot() }

// LiveBytes reports bytes currently held by the application.
func (a *JEMalloc) LiveBytes() int64 { return liveBytes(a.stats) }

// PeakBytes reports the high-water mark of mapped bytes.
func (a *JEMalloc) PeakBytes() int64 { return a.stats.peak.Load() }
