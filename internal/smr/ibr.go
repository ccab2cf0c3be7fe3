package smr

import "repro/internal/simalloc"

// IBR is interval-based reclamation (Wen et al., PPoPP '18), specifically
// the 2GE (two-global-epoch) flavour: each thread publishes a reservation
// interval [lower, upper] of epochs it may be reading in; objects carry
// birth and retire epochs; a retired object is freed once its lifetime
// interval is disjoint from every thread's reservation.
type IBR struct {
	core
	clock  eraClock // the global epoch
	lower  []pad64
	upper  []pad64
	guards []Guard
	th     []ibrThread
}

type ibrThread struct {
	scanList
	// ivs is the scan's reservation snapshot, reused like the lists.
	ivs []ibrInterval
	_   [7]int64
}

// ibrInterval is one thread's reservation snapshot taken during a scan.
type ibrInterval struct{ lo, hi int64 }

func newIBR(name string, cfg Config, af bool) Reclaimer {
	i := &IBR{core: newCore(name, cfg, af)}
	i.clock.init(i.e.cfg.EraFreq)
	i.lower = make([]pad64, i.e.cfg.Threads)
	i.upper = make([]pad64, i.e.cfg.Threads)
	i.guards = make([]Guard, i.e.cfg.Threads)
	for tid := range i.guards {
		i.reserve(tid, -1)
		i.guards[tid] = Guard{mode: GuardInterval, era: &i.clock.era, upper: &i.upper[tid]}
	}
	i.th = make([]ibrThread, i.e.cfg.Threads)
	return i
}

// Guard returns tid's zero-dispatch protection handle: a direct extension of
// the tid's reservation upper bound.
func (i *IBR) Guard(tid int) *Guard { return &i.guards[tid] }

// reserve sets tid's reservation interval to [e, e]; -1 clears it.
func (i *IBR) reserve(tid int, e int64) {
	i.lower[tid].v.Store(e)
	i.upper[tid].v.Store(e)
}

// BeginOp starts a fresh reservation interval at the current epoch.
func (i *IBR) BeginOp(tid int) { i.reserve(tid, i.clock.era.v.Load()) }

// EndOp clears the reservation and pumps the freer.
func (i *IBR) EndOp(tid int) {
	i.reserve(tid, -1)
	i.pump(tid)
}

// OnAlloc stamps the birth epoch.
func (i *IBR) OnAlloc(_ int, o *simalloc.Object) { i.clock.stampBirth(o) }

// Protect extends the reservation's upper bound to the current epoch.
func (i *IBR) Protect(tid int, _ int, _ *simalloc.Object) {
	e := i.clock.era.v.Load()
	if i.upper[tid].v.Load() < e {
		i.upper[tid].v.Store(e)
	}
}

// Retire stamps the retire epoch (every EraFreq retires the global epoch
// advances) and appends to the retire list, scanning at BatchSize.
func (i *IBR) Retire(tid int, o *simalloc.Object) {
	i.clock.stampRetire(o)
	me := &i.th[tid]
	me.retired = append(me.retired, o)
	i.e.noteRetire(tid)
	if len(me.retired) >= i.e.cfg.BatchSize {
		i.scan(tid)
	}
}

// scan frees retired objects disjoint from all reservation intervals.
func (i *IBR) scan(tid int) {
	me := &i.th[tid]
	// Adoption point: orphans keep their birth/retire epoch stamps, so
	// the interval-disjointness test applies to them unchanged.
	me.retired = i.adopt(me.retired)
	reserved := me.ivs[:0]
	for t := 0; t < i.e.cfg.Threads; t++ {
		lo := i.lower[t].v.Load()
		hi := i.upper[t].v.Load()
		if lo >= 0 {
			reserved = append(reserved, ibrInterval{lo, hi})
		}
	}
	me.ivs = reserved[:0]
	i.sweep(tid, &me.scanList, func(o *simalloc.Object) bool {
		for _, r := range reserved {
			if uint64(r.hi) >= o.BirthEra && uint64(r.lo) <= o.RetireEra {
				return true
			}
		}
		return false
	})
}

// Leave clears the slot's reservation interval — so the joiner that
// recycles the slot starts unreserved, as a fresh thread would — and hands
// its retire list to the orphan queue.
func (i *IBR) Leave(tid int) {
	i.reserve(tid, -1)
	i.depart(tid, &i.th[tid].retired)
}

// Drain frees everything pending — including orphans — unconditionally.
func (i *IBR) Drain(tid int) {
	i.drain(tid, 0, &i.th[tid].retired)
}
