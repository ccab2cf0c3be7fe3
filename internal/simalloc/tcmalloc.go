package simalloc

// TCMalloc models tcmalloc's small-object path (appendix B of the paper):
// one central free list per size class, protected by a lock, plus per-thread
// caches. A cache overflow moves a batch to the central list under that
// single per-class lock — a *global* synchronization point, which is why
// the paper finds tcmalloc suffers the RBF problem even more than jemalloc
// (Table 3: TC batch 25.7M ops/s vs JE batch 43.4M).
type TCMalloc struct {
	tcacheModel
	central [NumSizeClasses]tcCentral
}

type tcCentral struct {
	lockedList
	homeSocket int
	_          [3]int64
}

// NewTCMalloc constructs the tcmalloc model for cfg.
func NewTCMalloc(cfg Config) *TCMalloc {
	a := &TCMalloc{}
	a.init(cfg, a)
	for c := range a.central {
		// The central free lists live wherever the first toucher mapped
		// them; spread them across sockets round-robin.
		a.central[c].homeSocket = a.cfg.Cost.Socket(c * a.cfg.Threads / NumSizeClasses)
	}
	return a
}

func (a *TCMalloc) Name() string { return "tcmalloc" }

// refill fills dst with a batch from the central free list, under its
// lock, mapping a fresh page run when the list is empty.
func (a *TCMalloc) refill(tid int, class uint8, dst *objList) {
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
		dst.push(o)
		got++
	}
	central.mu.Unlock()
	if got > 0 {
		return
	}

	carveRun(&a.cfg, a.stats, &a.nextID, tid, class, 0, nil, dst)
}

// flush spills the first n objects of src to the central list while
// holding the central lock for the entire batch, mirroring tcmalloc's
// ReleaseToCentralCache.
func (a *TCMalloc) flush(tid int, class uint8, src *objList, n int) {
	ts := &a.stats.perThread[tid]
	central := &a.central[class]
	// The central free list is one global synchronization point per size
	// class: every spill reserves it for the whole batch, which is why the
	// paper finds tcmalloc even more RBF-prone than jemalloc.
	touch := a.cfg.Cost.TouchCost(tid, central.homeSocket)
	perObj := a.cfg.Cost.PerObjectFree * a.cfg.Cost.RemoteFactor
	hold := int64(touch+n*perObj) * nsPerSpinUnit
	central.acquire(tid, ts, touch, hold)
	for i := 0; i < n; i++ {
		o := src.pop()
		spinWork(tid, perObj)
		central.list.push(o)
		if o.OwnerTID != int32(tid) {
			ts.remoteFrees++
		}
	}
	central.mu.Unlock()
}
