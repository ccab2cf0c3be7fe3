package simalloc

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
	tcacheModel
	arenas  []jeArena
	scratch []jeFlushScratch // per thread

	// flushHoldProbe, when non-nil, observes every flush's virtual lock-hold
	// reservation (arena, hold ns) before it is booked. Test instrumentation
	// for pinning the modeled-cost formula; nil in production.
	flushHoldProbe func(arena int32, holdNs int64)
}

type jeArena struct {
	homeSocket int
	bins       [NumSizeClasses]jeBin
}

type jeBin struct {
	lockedList
	_ [4]int64 // keep bins on separate cache lines
}

// jeFlushScratch is one thread's flush scratch: the batch being returned,
// grouped by destination arena in one pass. arenaSlot maps an arena index
// to its group for the current flush; arenaSeen stamps which slots are
// valid for flushSeq, so grouping needs no per-flush clearing.
type jeFlushScratch struct {
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
	a := &JEMalloc{}
	a.init(cfg, a)
	a.arenas = make([]jeArena, a.cfg.ArenasPerThread*a.cfg.Threads)
	a.scratch = make([]jeFlushScratch, a.cfg.Threads)
	for i := range a.arenas {
		// Arena i primarily serves thread i / ArenasPerThread; home the
		// arena on that thread's socket.
		a.arenas[i].homeSocket = a.cfg.Cost.Socket(i / a.cfg.ArenasPerThread)
	}
	for i := range a.scratch {
		a.scratch[i].arenaSlot = make([]int32, len(a.arenas))
		a.scratch[i].arenaSeen = make([]uint32, len(a.arenas))
	}
	return a
}

func (a *JEMalloc) Name() string { return "jemalloc" }

// homeArena returns the arena a thread allocates from. With 4 arenas per
// thread each thread gets a distinct arena (jemalloc hashes threads to
// arenas; with 4T arenas collisions are rare, so a distinct assignment is
// the faithful common case).
func (a *JEMalloc) homeArena(tid int) int32 {
	return int32(tid * a.cfg.ArenasPerThread % len(a.arenas))
}

// refill fills dst from tid's home arena bin, mapping a fresh page run
// when the bin is also empty.
func (a *JEMalloc) refill(tid int, class uint8, dst *objList) {
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
		dst.push(o)
		got++
	}
	bin.mu.Unlock()
	if got > 0 {
		return
	}

	// Bin empty: map a fresh page run and carve it into objects.
	carveRun(&a.cfg, a.stats, &a.nextID, tid, class, arenaIdx, nil, dst)
}

// flush returns the first n objects of src to their arena bins. The
// locking discipline matches the paper's description of jemalloc: lock the
// bin of the first object, then iterate over the entire batch while holding
// the lock, returning every object that belongs to that bin; repeat until
// the batch is empty.
//
// The *modeled* cost is exactly that structure — each round's virtual lock
// hold covers a walk of the whole batch (touch + matched*perObj + n*2) — but
// the *host* work is O(n): the batch is grouped by destination arena in one
// pass instead of rescanning the remaining batch once per round. Groups are
// created in first-appearance order and each group chain preserves batch
// order, so bins are locked in the same sequence and receive the same
// objects in the same order as the scan-per-round structure; the modeled
// statistics are bit-identical (pinned by TestFlushGroupingInvariance).
func (a *JEMalloc) flush(tid int, class uint8, src *objList, n int) {
	ts := &a.stats.perThread[tid]
	sc := &a.scratch[tid]
	sc.flushSeq++
	if sc.flushSeq == 0 { // stamp wraparound: invalidate every slot
		clear(sc.arenaSeen)
		sc.flushSeq = 1
	}
	groups := sc.groups[:0]
	for i := 0; i < n; i++ {
		o := src.pop()
		ar := o.Arena
		if sc.arenaSeen[ar] != sc.flushSeq {
			sc.arenaSeen[ar] = sc.flushSeq
			sc.arenaSlot[ar] = int32(len(groups))
			groups = append(groups, jeFlushGroup{arena: ar})
		}
		g := &groups[sc.arenaSlot[ar]]
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
	sc.groups = groups[:0]
}
