package smr

import "repro/internal/simalloc"

// HE is hazard eras (Ramalhete & Correia, SPAA '17): hazard pointers where
// slots publish *eras* instead of node addresses. Objects are stamped with
// a birth era at allocation and a retire era at retirement; a retired
// object is safe once no thread's published era falls inside its lifetime
// interval.
//
// WFE (wait-free eras, Nikolaev & Ravindran, PPoPP '20) extends hazard eras
// with a wait-free helping protocol; the reproduction keeps HE's era /
// reservation / scan structure and models the helping protocol's extra
// announcement traffic as extraStores additional stores per protection. This
// matches WFE's observed position in the paper's Experiment 1 (close to HE,
// at the slow end of the field) and its modest ≈1.2× AF improvement in
// Experiment 2: per-operation synchronization, not batch freeing, dominates
// its cost.
type HE struct {
	core
	// extraStores models WFE's helping-related announcement traffic.
	extraStores int

	clock  eraClock
	slots  []pad64
	guards []Guard
	th     []heThread
}

type heThread struct {
	scanList
	// eras is the scan's reservation snapshot, reused like the lists.
	eras []int64
	_    [7]int64
}

func newHE(name string, cfg Config, af bool) Reclaimer  { return newEraScheme(name, cfg, af, 0) }
func newWFE(name string, cfg Config, af bool) Reclaimer { return newEraScheme(name, cfg, af, 2) }

func newEraScheme(name string, cfg Config, af bool, extraStores int) *HE {
	h := &HE{core: newCore(name, cfg, af), extraStores: extraStores}
	h.clock.init(h.e.cfg.EraFreq)
	h.slots = make([]pad64, h.e.cfg.Threads*HazardSlots)
	for i := range h.slots {
		h.slots[i].v.Store(-1) // -1 = no reservation
	}
	h.guards = make([]Guard, h.e.cfg.Threads)
	for tid := range h.guards {
		h.guards[tid] = Guard{
			mode: GuardEra,
			eras: h.slots[tid*HazardSlots : (tid+1)*HazardSlots], era: &h.clock.era,
			extraStores: extraStores,
		}
	}
	h.th = make([]heThread, h.e.cfg.Threads)
	return h
}

// Guard returns tid's zero-dispatch protection handle: a direct era store
// into the tid's slot window (with WFE's extra helping stores when the
// scheme models them).
func (h *HE) Guard(tid int) *Guard { return &h.guards[tid] }

// BeginOp publishes the current era in slot 0, so the thread is protected
// from the first traversal step.
func (h *HE) BeginOp(tid int) {
	h.publish(tid, 0)
}

func (h *HE) publish(tid, slot int) {
	e := h.clock.era.v.Load()
	idx := tid*HazardSlots + slot%HazardSlots
	h.slots[idx].v.Store(e)
	for i := 0; i < h.extraStores; i++ {
		// WFE's helping protocol performs additional announcement work per
		// protection; modelled as repeated stores of the same era.
		h.slots[idx].v.Store(e)
	}
}

// clearWindow drops tid's reservations.
func (h *HE) clearWindow(tid int) {
	base := tid * HazardSlots
	for i := 0; i < HazardSlots; i++ {
		h.slots[base+i].v.Store(-1)
	}
}

// EndOp clears the thread's reservations and pumps the freer.
func (h *HE) EndOp(tid int) {
	h.clearWindow(tid)
	h.pump(tid)
}

// OnAlloc stamps the object's birth era.
func (h *HE) OnAlloc(_ int, o *simalloc.Object) { h.clock.stampBirth(o) }

// Protect re-publishes the current era in the given slot (the era may have
// advanced since BeginOp).
func (h *HE) Protect(tid int, slot int, _ *simalloc.Object) {
	h.publish(tid, slot)
}

// Retire stamps the retire era (every EraFreq retires the global era
// advances) and appends to the retire list, scanning at BatchSize.
func (h *HE) Retire(tid int, o *simalloc.Object) {
	h.clock.stampRetire(o)
	me := &h.th[tid]
	me.retired = append(me.retired, o)
	h.e.noteRetire(tid)
	if len(me.retired) >= h.e.cfg.BatchSize {
		h.scan(tid)
	}
}

// scan frees retired objects whose [birth, retire] interval intersects no
// thread's published era.
func (h *HE) scan(tid int) {
	me := &h.th[tid]
	// Adoption point: orphans keep their birth/retire era stamps, so the
	// interval test below applies to them unchanged once they join the
	// retire list.
	me.retired = h.adopt(me.retired)
	// Snapshot reservations once; O(threads × slots).
	reserved := me.eras[:0]
	for i := range h.slots {
		if e := h.slots[i].v.Load(); e >= 0 {
			reserved = append(reserved, e)
		}
	}
	me.eras = reserved[:0]
	h.sweep(tid, &me.scanList, func(o *simalloc.Object) bool {
		for _, e := range reserved {
			if uint64(e) >= o.BirthEra && uint64(e) <= o.RetireEra {
				return true
			}
		}
		return false
	})
}

// Leave clears the slot's era reservations — so the joiner that recycles
// the slot starts unreserved, as a fresh thread would — and hands its
// retire list to the orphan queue.
func (h *HE) Leave(tid int) {
	h.clearWindow(tid)
	h.depart(tid, &h.th[tid].retired)
}

// Drain frees everything pending — including orphans — unconditionally.
func (h *HE) Drain(tid int) {
	h.drain(tid, 0, &h.th[tid].retired)
}
