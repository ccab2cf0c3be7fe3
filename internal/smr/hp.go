package smr

import "repro/internal/simalloc"

// HP is Michael's hazard pointers (TPDS '04). Each thread owns a small
// window of hazard slots it publishes visited nodes into; a thread whose
// retire list reaches BatchSize scans every thread's slots and frees the
// retired objects nobody protects, keeping the rest for the next scan.
//
// The per-traversal-step atomic publication is why HP is 7-9× slower than
// token_af in the paper's Experiment 1; the scan-then-free-batch structure
// is why it still benefits (modestly) from amortized freeing.
type HP struct {
	e      env
	f      freer
	af     bool
	slots  []padPtr // threads × HazardSlots, row-major
	guards []Guard
	th     []hpThread
}

type hpThread struct {
	retired []*simalloc.Object
	scratch map[*simalloc.Object]struct{}
	// freeable is the scan's output batch, reused across scans so the
	// steady state allocates nothing.
	freeable []*simalloc.Object
	_        [1]int64
}

// NewHP constructs hazard pointers; af selects the amortized-free variant.
func NewHP(cfg Config, af bool) *HP {
	h := &HP{af: af}
	h.e = newEnv(cfg)
	h.f = newFreer(&h.e, af)
	hs := h.e.cfg.HazardSlots
	h.slots = make([]padPtr, h.e.cfg.Threads*hs)
	h.guards = make([]Guard, h.e.cfg.Threads)
	for tid := range h.guards {
		h.guards[tid] = Guard{mode: GuardPtr, nSlots: hs, ptrs: h.slots[tid*hs : (tid+1)*hs]}
	}
	h.th = make([]hpThread, h.e.cfg.Threads)
	for i := range h.th {
		h.th[i].scratch = make(map[*simalloc.Object]struct{}, h.e.cfg.Threads*hs)
	}
	return h
}

// Guard returns tid's zero-dispatch protection handle: a direct pointer
// store into the tid's hazard window.
func (h *HP) Guard(tid int) *Guard { return &h.guards[tid] }

func (h *HP) Name() string {
	if h.af {
		return "hp_af"
	}
	return "hp"
}

// BeginOp is a no-op; protection is per pointer.
func (h *HP) BeginOp(int) {}

// EndOp clears the thread's hazard window and pumps the freer.
func (h *HP) EndOp(tid int) {
	base := tid * h.e.cfg.HazardSlots
	for i := 0; i < h.e.cfg.HazardSlots; i++ {
		h.slots[base+i].p.Store(nil)
	}
	h.f.pump(tid)
}

// OnAlloc is a no-op.
func (h *HP) OnAlloc(int, *simalloc.Object) {}

// Protect publishes o in tid's hazard slot. The sequentially-consistent
// store is the algorithm's per-step cost.
func (h *HP) Protect(tid int, slot int, o *simalloc.Object) {
	h.slots[tid*h.e.cfg.HazardSlots+slot%h.e.cfg.HazardSlots].p.Store(o)
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

// scan partitions the retire list into protected and free-able objects and
// hands the latter to the freer as one batch.
func (h *HP) scan(tid int) {
	me := &h.th[tid]
	// Adoption point: orphans join the retire list before the hazard
	// snapshot, so anything still published in a live thread's window is
	// kept and everything else frees with this batch.
	if h.e.reg.hasOrphans() {
		me.retired = h.e.reg.adoptInto(me.retired)
	}
	clear(me.scratch)
	for i := range h.slots {
		if o := h.slots[i].p.Load(); o != nil {
			me.scratch[o] = struct{}{}
		}
	}
	keep := me.retired[:0]
	freeable := me.freeable[:0]
	for _, o := range me.retired {
		if _, hazard := me.scratch[o]; hazard {
			keep = append(keep, o)
		} else {
			freeable = append(freeable, o)
		}
	}
	me.retired = keep
	h.e.epochs.Add(1) // count scan rounds as "epochs" for reporting
	h.f.freeBatch(tid, freeable)
	clear(freeable) // freed objects must not stay reachable from the scratch
	me.freeable = freeable[:0]
	h.e.sampleGarbage(tid)
}

// Join occupies a vacated slot; its hazard window is already clear (Leave
// and EndOp both nil it), so the joiner starts unprotected as a fresh
// thread would.
func (h *HP) Join() (int, error) { return h.e.reg.join() }

// Leave clears the slot's hazard window, hands its retire list and any
// queued freeable objects to the orphan queue, and vacates the slot.
func (h *HP) Leave(tid int) {
	base := tid * h.e.cfg.HazardSlots
	for i := 0; i < h.e.cfg.HazardSlots; i++ {
		h.slots[base+i].p.Store(nil)
	}
	me := &h.th[tid]
	h.e.reg.orphan(me.retired)
	me.retired = nil
	h.f.orphanAll(h.e.reg, tid)
	h.e.leave(tid)
}

// Drain frees everything pending — including orphans — regardless of
// hazards (only call once all threads have stopped).
func (h *HP) Drain(tid int) {
	me := &h.th[tid]
	if h.e.reg.hasOrphans() {
		me.retired = h.e.reg.adoptInto(me.retired)
	}
	if len(me.retired) > 0 {
		h.f.freeBatch(tid, me.retired)
		me.retired = me.retired[:0]
	}
	h.f.drainAll(tid)
}

// Stats returns an aggregated snapshot.
func (h *HP) Stats() Stats { return h.e.stats() }
