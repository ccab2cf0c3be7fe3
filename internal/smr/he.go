package smr

import "repro/internal/simalloc"

// HE is hazard eras (Ramalhete & Correia, SPAA '17): hazard pointers where
// slots publish *eras* instead of node addresses. Objects are stamped with
// a birth era at allocation and a retire era at retirement; a retired
// object is safe once no thread's published era falls inside its lifetime
// interval. WFE (wait-free eras, Nikolaev & Ravindran, PPoPP '20) follows
// the same structure with wait-free helping; we model its extra
// synchronization as a second announcement store per protection (see wfe.go).
type HE struct {
	e env
	f freer
	// name distinguishes he/he_af/wfe/wfe_af (wfe embeds HE).
	name string
	// extraStores models WFE's helping-related announcement traffic.
	extraStores int

	era     pad64 // global era clock
	slots   []pad64
	guards  []Guard
	th      []heThread
	retireN pad64 // global retire counter driving the era clock
}

type heThread struct {
	retired []*simalloc.Object
	// freeable and eras are scan scratch, reused so steady-state scans
	// allocate nothing.
	freeable []*simalloc.Object
	eras     []int64
	_        [7]int64
}

// NewHE constructs hazard eras; af selects the amortized-free variant.
func NewHE(cfg Config, af bool) *HE {
	name := "he"
	if af {
		name = "he_af"
	}
	return newEraScheme(cfg, af, name, 0)
}

func newEraScheme(cfg Config, af bool, name string, extraStores int) *HE {
	h := &HE{name: name, extraStores: extraStores}
	h.e = newEnv(cfg)
	h.f = newFreer(&h.e, af)
	hs := h.e.cfg.HazardSlots
	h.slots = make([]pad64, h.e.cfg.Threads*hs)
	for i := range h.slots {
		h.slots[i].v.Store(-1) // -1 = no reservation
	}
	h.guards = make([]Guard, h.e.cfg.Threads)
	for tid := range h.guards {
		h.guards[tid] = Guard{
			mode: GuardEra, nSlots: hs,
			eras: h.slots[tid*hs : (tid+1)*hs], era: &h.era,
			extraStores: extraStores,
		}
	}
	h.th = make([]heThread, h.e.cfg.Threads)
	h.era.v.Store(1)
	return h
}

// Guard returns tid's zero-dispatch protection handle: a direct era store
// into the tid's slot window (with WFE's extra helping stores when the
// scheme models them).
func (h *HE) Guard(tid int) *Guard { return &h.guards[tid] }

func (h *HE) Name() string { return h.name }

// BeginOp publishes the current era in slot 0, so the thread is protected
// from the first traversal step.
func (h *HE) BeginOp(tid int) {
	h.publish(tid, 0)
}

func (h *HE) publish(tid, slot int) {
	e := h.era.v.Load()
	idx := tid*h.e.cfg.HazardSlots + slot%h.e.cfg.HazardSlots
	h.slots[idx].v.Store(e)
	for i := 0; i < h.extraStores; i++ {
		// WFE's helping protocol performs additional announcement work per
		// protection; modelled as repeated stores of the same era.
		h.slots[idx].v.Store(e)
	}
}

// EndOp clears the thread's reservations and pumps the freer.
func (h *HE) EndOp(tid int) {
	base := tid * h.e.cfg.HazardSlots
	for i := 0; i < h.e.cfg.HazardSlots; i++ {
		h.slots[base+i].v.Store(-1)
	}
	h.f.pump(tid)
}

// OnAlloc stamps the object's birth era.
func (h *HE) OnAlloc(_ int, o *simalloc.Object) {
	o.BirthEra = uint64(h.era.v.Load())
}

// Protect re-publishes the current era in the given slot (the era may have
// advanced since BeginOp).
func (h *HE) Protect(tid int, slot int, _ *simalloc.Object) {
	h.publish(tid, slot)
}

// Retire stamps the retire era and appends to the retire list, scanning at
// BatchSize. Every EraFreq retires the global era advances.
func (h *HE) Retire(tid int, o *simalloc.Object) {
	o.RetireEra = uint64(h.era.v.Load())
	me := &h.th[tid]
	me.retired = append(me.retired, o)
	h.e.noteRetire(tid)
	if h.retireN.v.Add(1)%int64(h.e.cfg.EraFreq) == 0 {
		h.era.v.Add(1)
	}
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
	if h.e.reg.hasOrphans() {
		me.retired = h.e.reg.adoptInto(me.retired)
	}
	// Snapshot reservations once; O(threads × slots).
	reserved := me.eras[:0]
	for i := range h.slots {
		if e := h.slots[i].v.Load(); e >= 0 {
			reserved = append(reserved, e)
		}
	}
	me.eras = reserved[:0]
	conflict := func(o *simalloc.Object) bool {
		for _, e := range reserved {
			if uint64(e) >= o.BirthEra && uint64(e) <= o.RetireEra {
				return true
			}
		}
		return false
	}
	keep := me.retired[:0]
	freeable := me.freeable[:0]
	for _, o := range me.retired {
		if conflict(o) {
			keep = append(keep, o)
		} else {
			freeable = append(freeable, o)
		}
	}
	me.retired = keep
	h.e.epochs.Add(1)
	h.f.freeBatch(tid, freeable)
	clear(freeable) // freed objects must not stay reachable from the scratch
	me.freeable = freeable[:0]
	h.e.sampleGarbage(tid)
}

// Join occupies a vacated slot; its era reservations are already cleared
// (-1), so the joiner starts unreserved as a fresh thread would.
func (h *HE) Join() (int, error) { return h.e.reg.join() }

// Leave clears the slot's era reservations, hands its retire list and any
// queued freeable objects to the orphan queue, and vacates the slot.
func (h *HE) Leave(tid int) {
	base := tid * h.e.cfg.HazardSlots
	for i := 0; i < h.e.cfg.HazardSlots; i++ {
		h.slots[base+i].v.Store(-1)
	}
	me := &h.th[tid]
	h.e.reg.orphan(me.retired)
	me.retired = nil
	h.f.orphanAll(h.e.reg, tid)
	h.e.leave(tid)
}

// Drain frees everything pending — including orphans — unconditionally.
func (h *HE) Drain(tid int) {
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
func (h *HE) Stats() Stats { return h.e.stats() }
