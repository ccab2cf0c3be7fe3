package smr

import "repro/internal/simalloc"

// IBR is interval-based reclamation (Wen et al., PPoPP '18), specifically
// the 2GE (two-global-epoch) flavour: each thread publishes a reservation
// interval [lower, upper] of epochs it may be reading in; objects carry
// birth and retire epochs; a retired object is freed once its lifetime
// interval is disjoint from every thread's reservation.
type IBR struct {
	e  env
	f  freer
	af bool

	epoch   pad64 // global epoch clock
	lower   []pad64
	upper   []pad64
	guards  []Guard
	th      []ibrThread
	retireN pad64
}

type ibrThread struct {
	retired []*simalloc.Object
	// freeable and ivs are scan scratch, reused so steady-state scans
	// allocate nothing.
	freeable []*simalloc.Object
	ivs      []ibrInterval
	_        [7]int64
}

// ibrInterval is one thread's reservation snapshot taken during a scan.
type ibrInterval struct{ lo, hi int64 }

// NewIBR constructs 2GE-IBR; af selects the amortized-free variant.
func NewIBR(cfg Config, af bool) *IBR {
	i := &IBR{af: af}
	i.e = newEnv(cfg)
	i.f = newFreer(&i.e, af)
	i.lower = make([]pad64, i.e.cfg.Threads)
	i.upper = make([]pad64, i.e.cfg.Threads)
	for t := range i.lower {
		i.lower[t].v.Store(-1)
		i.upper[t].v.Store(-1)
	}
	i.guards = make([]Guard, i.e.cfg.Threads)
	for tid := range i.guards {
		i.guards[tid] = Guard{mode: GuardInterval, era: &i.epoch, upper: &i.upper[tid]}
	}
	i.th = make([]ibrThread, i.e.cfg.Threads)
	i.epoch.v.Store(1)
	return i
}

// Guard returns tid's zero-dispatch protection handle: a direct extension of
// the tid's reservation upper bound.
func (i *IBR) Guard(tid int) *Guard { return &i.guards[tid] }

func (i *IBR) Name() string {
	if i.af {
		return "ibr_af"
	}
	return "ibr"
}

// BeginOp starts a fresh reservation interval at the current epoch.
func (i *IBR) BeginOp(tid int) {
	e := i.epoch.v.Load()
	i.lower[tid].v.Store(e)
	i.upper[tid].v.Store(e)
}

// EndOp clears the reservation and pumps the freer.
func (i *IBR) EndOp(tid int) {
	i.lower[tid].v.Store(-1)
	i.upper[tid].v.Store(-1)
	i.f.pump(tid)
}

// OnAlloc stamps the birth epoch.
func (i *IBR) OnAlloc(_ int, o *simalloc.Object) {
	o.BirthEra = uint64(i.epoch.v.Load())
}

// Protect extends the reservation's upper bound to the current epoch.
func (i *IBR) Protect(tid int, _ int, _ *simalloc.Object) {
	e := i.epoch.v.Load()
	if i.upper[tid].v.Load() < e {
		i.upper[tid].v.Store(e)
	}
}

// Retire stamps the retire epoch and appends to the retire list, scanning
// at BatchSize; every EraFreq retires advances the global epoch.
func (i *IBR) Retire(tid int, o *simalloc.Object) {
	o.RetireEra = uint64(i.epoch.v.Load())
	me := &i.th[tid]
	me.retired = append(me.retired, o)
	i.e.noteRetire(tid)
	if i.retireN.v.Add(1)%int64(i.e.cfg.EraFreq) == 0 {
		i.epoch.v.Add(1)
	}
	if len(me.retired) >= i.e.cfg.BatchSize {
		i.scan(tid)
	}
}

// scan frees retired objects disjoint from all reservation intervals.
func (i *IBR) scan(tid int) {
	me := &i.th[tid]
	// Adoption point: orphans keep their birth/retire epoch stamps, so
	// the interval-disjointness test applies to them unchanged.
	if i.e.reg.hasOrphans() {
		me.retired = i.e.reg.adoptInto(me.retired)
	}
	reserved := me.ivs[:0]
	for t := 0; t < i.e.cfg.Threads; t++ {
		lo := i.lower[t].v.Load()
		hi := i.upper[t].v.Load()
		if lo >= 0 {
			reserved = append(reserved, ibrInterval{lo, hi})
		}
	}
	me.ivs = reserved[:0]
	conflict := func(o *simalloc.Object) bool {
		for _, r := range reserved {
			if uint64(r.hi) >= o.BirthEra && uint64(r.lo) <= o.RetireEra {
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
	i.e.epochs.Add(1)
	i.f.freeBatch(tid, freeable)
	clear(freeable) // freed objects must not stay reachable from the scratch
	me.freeable = freeable[:0]
	i.e.sampleGarbage(tid)
}

// Join occupies a vacated slot; its reservation interval is already
// cleared (-1,-1), so the joiner starts unreserved as a fresh thread.
func (i *IBR) Join() (int, error) { return i.e.reg.join() }

// Leave clears the slot's reservation interval, hands its retire list and
// any queued freeable objects to the orphan queue, and vacates the slot.
func (i *IBR) Leave(tid int) {
	i.lower[tid].v.Store(-1)
	i.upper[tid].v.Store(-1)
	me := &i.th[tid]
	i.e.reg.orphan(me.retired)
	me.retired = nil
	i.f.orphanAll(i.e.reg, tid)
	i.e.leave(tid)
}

// Drain frees everything pending — including orphans — unconditionally.
func (i *IBR) Drain(tid int) {
	me := &i.th[tid]
	if i.e.reg.hasOrphans() {
		me.retired = i.e.reg.adoptInto(me.retired)
	}
	if len(me.retired) > 0 {
		i.f.freeBatch(tid, me.retired)
		me.retired = me.retired[:0]
	}
	i.f.drainAll(tid)
}

// Stats returns an aggregated snapshot.
func (i *IBR) Stats() Stats { return i.e.stats() }
