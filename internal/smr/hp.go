package smr

import (
	"unsafe"

	"repro/internal/simalloc"
)

// HP is Michael's hazard pointers (TPDS '04). Each thread owns a small
// window of hazard slots it publishes visited nodes into; a thread whose
// retire list reaches BatchSize scans every thread's slots and frees the
// retired objects nobody protects, keeping the rest for the next scan.
//
// The per-traversal-step atomic publication is why HP is 7-9× slower than
// token_af in the paper's Experiment 1; the scan-then-free-batch structure
// is why it still benefits (modestly) from amortized freeing.
type HP struct {
	core
	slots  []padPtr // threads × HazardSlots, row-major
	guards []Guard
	th     []hpThread
}

type hpThread struct {
	scanList
	// scratch is the scan's hazard snapshot (published addresses), reused
	// like the lists.
	scratch map[uintptr]struct{}
	_       [1]int64
}

func newHP(name string, cfg Config, af bool) Reclaimer {
	h := &HP{core: newCore(name, cfg, af)}
	hs := h.e.cfg.HazardSlots
	h.slots = make([]padPtr, h.e.cfg.Threads*hs)
	h.guards = make([]Guard, h.e.cfg.Threads)
	for tid := range h.guards {
		h.guards[tid] = Guard{mode: GuardPtr, ptrs: h.slots[tid*hs : (tid+1)*hs]}
	}
	h.th = make([]hpThread, h.e.cfg.Threads)
	for i := range h.th {
		h.th[i].scratch = make(map[uintptr]struct{}, h.e.cfg.Threads*hs)
	}
	return h
}

// Guard returns tid's zero-dispatch protection handle: an inlined address
// store into the tid's hazard window.
func (h *HP) Guard(tid int) *Guard { return &h.guards[tid] }

// clearHazards zeroes a thread's hazard slots.
func clearHazards(w []padPtr) {
	for i := range w {
		w[i].p.Store(0)
	}
}

// EndOp clears the thread's hazard window and pumps the freer. (BeginOp is
// core's no-op; protection is per pointer.)
func (h *HP) EndOp(tid int) {
	clearHazards(h.guards[tid].ptrs)
	h.pump(tid)
}

// Protect publishes o in tid's hazard slot. The sequentially-consistent
// store is the algorithm's per-step cost.
func (h *HP) Protect(tid int, slot int, o *simalloc.Object) {
	h.slots[tid*h.e.cfg.HazardSlots+slot%h.e.cfg.HazardSlots].p.Store(uintptr(unsafe.Pointer(o)))
}

// Retire appends o to the retire list, scanning when it reaches BatchSize.
func (h *HP) Retire(tid int, o *simalloc.Object) {
	me := &h.th[tid]
	me.retired = append(me.retired, o)
	h.e.noteRetire(tid)
	if len(me.retired) >= h.e.cfg.BatchSize {
		h.scan(tid)
	}
}

// scan snapshots every hazard slot and sweeps the retire list against it:
// an object is held while some slot publishes it.
func (h *HP) scan(tid int) {
	me := &h.th[tid]
	// Adoption point: orphans join the retire list before the hazard
	// snapshot, so anything still published in a live thread's window is
	// kept and everything else frees with this batch.
	me.retired = h.adopt(me.retired)
	clear(me.scratch)
	for i := range h.slots {
		if a := h.slots[i].p.Load(); a != 0 {
			me.scratch[a] = struct{}{}
		}
	}
	h.sweep(tid, &me.scanList, func(o *simalloc.Object) bool {
		_, hazard := me.scratch[uintptr(unsafe.Pointer(o))]
		return hazard
	})
}

// Leave clears the slot's hazard window — so the joiner that recycles the
// slot starts unprotected, as a fresh thread would — and hands its retire
// list to the orphan queue.
func (h *HP) Leave(tid int) {
	clearHazards(h.guards[tid].ptrs)
	h.depart(tid, &h.th[tid].retired)
}

// Drain frees everything pending — including orphans — regardless of
// hazards (only call once all threads have stopped).
func (h *HP) Drain(tid int) {
	h.drain(tid, 0, &h.th[tid].retired)
}
