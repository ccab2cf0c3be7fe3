package simalloc

import (
	"sync/atomic"

	"repro/internal/clock"
)

// Page is a mimalloc-style page: a run of same-class objects owned by one
// thread, with sharded free lists. The owner allocates from allocList,
// frees its own objects onto localFree, and other threads push remote frees
// onto the lock-free cross list. Two remote frees contend only if they hit
// the same page — the property that makes mimalloc immune to the RBF
// problem (Table 3).
type Page struct {
	owner      int32
	class      uint8
	homeSocket int

	// cross is the cross-thread free list: a Treiber stack of Objects
	// linked through Object.next.
	cross atomic.Pointer[Object]

	// allocList and localFree are owner-only; no synchronization needed.
	allocList objList
	localFree objList
}

// MIMalloc models mimalloc's free-list-sharding design (appendix B).
type MIMalloc struct {
	model
	heaps []miHeap
}

type miHeap struct {
	// pages[class] is the ring of pages this thread owns for a class;
	// cursor[class] is the current allocation page.
	pages  [NumSizeClasses][]*Page
	cursor [NumSizeClasses]int
	_      [8]int64
}

// NewMIMalloc constructs the mimalloc model for cfg.
func NewMIMalloc(cfg Config) *MIMalloc {
	a := &MIMalloc{}
	a.init(cfg)
	a.heaps = make([]miHeap, a.cfg.Threads)
	return a
}

func (a *MIMalloc) Name() string { return "mimalloc" }

// Alloc pops from the current page's allocation list, collecting the local
// and cross-thread free lists on miss, rotating through owned pages, and
// finally mapping a fresh page. The fast path — a pop from the cursor page —
// takes no host clock stamps; only the collect/fresh-page slow path is
// timed.
func (a *MIMalloc) Alloc(tid int, size int) *Object {
	ts := &a.stats.perThread[tid]
	class := SizeToClass(size)
	h := &a.heaps[tid]

	var o *Object
	if pages := h.pages[class]; len(pages) > 0 {
		o = pages[h.cursor[class]].allocList.pop()
	}
	if o == nil {
		t0 := clock.Now()
		o = a.popFromPages(tid, h, class)
		if o == nil {
			o = a.freshPage(tid, class, h)
		}
		ts.allocNanos += clock.Now() - t0
		ts.clockReads += 2
	}
	o.markAllocated()
	o.OwnerTID = int32(tid)
	ts.allocs++
	ts.allocBytes += int64(o.Size)
	return o
}

// popFromPages scans tid's pages for the class starting at the cursor,
// collecting sharded free lists as mimalloc's page collect does.
func (a *MIMalloc) popFromPages(tid int, h *miHeap, class uint8) *Object {
	pages := h.pages[class]
	n := len(pages)
	for i := 0; i < n; i++ {
		idx := (h.cursor[class] + i) % n
		p := pages[idx]
		if o := p.allocList.pop(); o != nil {
			h.cursor[class] = idx
			return o
		}
		// Collect: swap in the local free list and drain the cross list.
		p.allocList.pushAll(&p.localFree)
		for o := p.cross.Swap(nil); o != nil; {
			next := o.next
			o.next = nil
			p.allocList.push(o)
			o = next
		}
		if o := p.allocList.pop(); o != nil {
			h.cursor[class] = idx
			return o
		}
	}
	return nil
}

func (a *MIMalloc) freshPage(tid int, class uint8, h *miHeap) *Object {
	p := &Page{
		owner:      int32(tid),
		class:      class,
		homeSocket: a.cfg.Cost.Socket(tid),
	}
	carveRun(&a.cfg, a.stats, &a.nextID, tid, class, 0, p, &p.allocList)
	h.pages[class] = append(h.pages[class], p)
	h.cursor[class] = len(h.pages[class]) - 1
	return p.allocList.pop()
}

// Free returns o to its page: unsynchronized onto localFree when tid owns
// the page, or an atomic push onto the page's cross-thread list otherwise.
// There is no batch flush anywhere on this path, which is why amortized
// freeing cannot help mimalloc. Only the remote path — the one with modeled
// cost — is clock-stamped; an owner-local free costs no host clock reads.
func (a *MIMalloc) Free(tid int, o *Object) {
	ts := &a.stats.perThread[tid]
	o.markFree()
	ts.frees++
	ts.freeBytes += int64(o.Size)
	p := o.Page
	if p.owner == int32(tid) {
		p.localFree.push(o)
		return
	}
	t0 := clock.Now()
	ts.remoteFrees++
	spinWork(tid, a.cfg.Cost.TouchCost(tid, p.homeSocket))
	for {
		h := p.cross.Load()
		o.next = h
		if p.cross.CompareAndSwap(h, o) {
			break
		}
	}
	end := clock.Now()
	ts.freeNanos += end - t0
	ts.clockReads += 2
	if a.freeObs != nil {
		a.freeObs(tid, t0, end)
	}
}

// FlushThreadCache is a no-op: mimalloc has no thread cache separate from
// its pages. A departing thread's pages stay attached to the slot — the
// model's analogue of mimalloc's abandoned-segment list, which the next
// thread recycled onto the slot adopts wholesale.
func (a *MIMalloc) FlushThreadCache(int) {}
