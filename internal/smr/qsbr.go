package smr

import "repro/internal/simalloc"

// QSBR is quiescent-state-based reclamation (Hart et al., JPDC '07). The end
// of every data-structure operation is a quiescent state: the thread cannot
// hold references across it, so announcing the epoch there (instead of at
// operation start) suffices. Structurally QSBR is DEBRA with the
// announcement moved to EndOp and two-epoch bag rotation; its per-operation
// overhead is the lowest of the classical schemes.
type QSBR struct {
	e  env
	f  freer
	af bool
	th []qsbrThread
}

type qsbrThread struct {
	announced pad64
	bags      [3][]*simalloc.Object
	cur       int
	scanIdx   int
	opCount   int
	_         [4]int64
}

// NewQSBR constructs QSBR; af selects the amortized-free variant.
func NewQSBR(cfg Config, af bool) *QSBR {
	q := &QSBR{af: af}
	q.e = newEnv(cfg)
	q.f = newFreer(&q.e, af)
	q.th = make([]qsbrThread, q.e.cfg.Threads)
	return q
}

func (q *QSBR) Name() string {
	if q.af {
		return "qsbr_af"
	}
	return "qsbr"
}

// BeginOp is a no-op: QSBR does all its work at quiescent states.
func (q *QSBR) BeginOp(int) {}

// EndOp announces a quiescent state, rotates bags on epoch change, performs
// the amortized scan, and pumps the freer.
func (q *QSBR) EndOp(tid int) {
	me := &q.th[tid]
	ge := q.e.epochs.Load()
	if me.announced.v.Load() != ge {
		me.announced.v.Store(ge)
		idx := int((ge + 1) % 3)
		if len(me.bags[idx]) > 0 {
			q.f.freeBatch(tid, me.bags[idx])
			me.bags[idx] = me.bags[idx][:0]
		}
		me.cur = int(ge % 3)
		me.scanIdx = 0
		// Adoption point: orphans join the current-epoch bag and wait out
		// a fresh two-epoch grace period (conservative, therefore safe).
		if q.e.reg.hasOrphans() {
			me.bags[me.cur] = q.e.reg.adoptInto(me.bags[me.cur])
		}
	}
	me.opCount++
	if me.opCount%q.e.cfg.EpochCheckOps == 0 {
		// Vacated slots are skipped: a departed participant is permanently
		// quiescent and must not stall the epoch.
		if !q.e.reg.isLive(me.scanIdx) || q.th[me.scanIdx].announced.v.Load() == ge {
			me.scanIdx++
			if me.scanIdx >= q.e.cfg.Threads {
				me.scanIdx = 0
				if q.e.epochs.CompareAndSwap(ge, ge+1) {
					q.e.sampleGarbage(tid)
				}
			}
		}
	}
	q.f.pump(tid)
}

// OnAlloc is a no-op for epoch-based schemes.
func (q *QSBR) OnAlloc(int, *simalloc.Object) {}

// Protect is a no-op for epoch-based schemes.
func (q *QSBR) Protect(int, int, *simalloc.Object) {}

// Guard returns nil: quiescent-state protection needs no per-node
// publication, so trees branch away from the protect path entirely.
func (q *QSBR) Guard(int) *Guard { return nil }

// Retire places o in the current limbo bag.
func (q *QSBR) Retire(tid int, o *simalloc.Object) {
	me := &q.th[tid]
	me.bags[me.cur] = append(me.bags[me.cur], o)
	q.e.noteRetire(tid)
}

// Join occupies a vacated slot and primes its announcement at the current
// epoch, so the joiner counts toward — without stalling — the next advance.
func (q *QSBR) Join() (int, error) {
	slot, err := q.e.reg.join()
	if err != nil {
		return -1, err
	}
	me := &q.th[slot]
	ge := q.e.epochs.Load()
	me.cur = int(ge % 3)
	me.scanIdx = 0
	me.opCount = 0
	me.announced.v.Store(ge)
	return slot, nil
}

// Leave hands the slot's limbo bags and any queued freeable objects to the
// orphan queue and vacates the slot.
func (q *QSBR) Leave(tid int) {
	me := &q.th[tid]
	for i := range me.bags {
		q.e.reg.orphan(me.bags[i])
		me.bags[i] = nil
	}
	q.f.orphanAll(q.e.reg, tid)
	q.e.leave(tid)
}

// Drain frees all bags, pending orphans, and the freeable list
// unconditionally.
func (q *QSBR) Drain(tid int) {
	me := &q.th[tid]
	if q.e.reg.hasOrphans() {
		me.bags[me.cur] = q.e.reg.adoptInto(me.bags[me.cur])
	}
	for i := range me.bags {
		if len(me.bags[i]) > 0 {
			q.f.freeBatch(tid, me.bags[i])
			me.bags[i] = me.bags[i][:0]
		}
	}
	q.f.drainAll(tid)
}

// Stats returns an aggregated snapshot.
func (q *QSBR) Stats() Stats { return q.e.stats() }
