package smr

import "repro/internal/simalloc"

// DEBRA is Brown's distributed epoch-based reclamation (PODC '15), the
// paper's representative state-of-the-art EBR:
//
//   - A global epoch number and a single-writer multi-reader announcement
//     array with one slot per thread.
//   - Threads announce the epoch at the start of each operation and rotate
//     three limbo bags on epoch change, freeing the bag from two epochs ago.
//   - The scan of other threads' announcements is amortized: every
//     epochCheckOps-th operation inspects one other thread, round-robin; the
//     first thread to observe that all threads announced the current epoch
//     advances it.
//
// Doubling the thread count therefore doubles the expected epoch length and
// the limbo-bag size — the mechanism behind the paper's Table 1.
type DEBRA struct {
	core
	th []debraThread
}

type debraThread struct {
	announced pad64
	bags      [3][]*simalloc.Object
	cur       int
	scanIdx   int
	opCount   int
	_         [4]int64
}

// epochCheckOps is the scan's amortization: an operation inspects one other
// thread's announcement every epochCheckOps operations.
const epochCheckOps = 4

func makeDEBRA(name string, cfg Config, af bool) DEBRA {
	return DEBRA{core: newCore(name, cfg, af), th: make([]debraThread, cfg.Threads)}
}

func newDEBRA(name string, cfg Config, af bool) Reclaimer {
	d := makeDEBRA(name, cfg, af)
	return &d
}

// BeginOp announces the current epoch, rotating limbo bags on change, and
// performs the amortized announcement scan. (QSBR runs this same body from
// EndOp: see qsbr.go.)
func (d *DEBRA) BeginOp(tid int) {
	me := &d.th[tid]
	ge := d.e.epochs.Load()
	if me.announced.v.Load() != ge {
		me.announced.v.Store(ge)
		// The bag filled two epochs ago is now safe: no operation that
		// started before those objects were unlinked can still be running.
		idx := int((ge + 1) % 3)
		if len(me.bags[idx]) > 0 {
			d.freeBatch(tid, me.bags[idx])
			me.bags[idx] = me.bags[idx][:0]
		}
		me.cur = int(ge % 3)
		me.scanIdx = 0
		// Adoption point: orphans enter the current-epoch bag, so they
		// wait out a full two-epoch grace period from here — conservative
		// (they were unlinked earlier) and therefore safe.
		me.bags[me.cur] = d.adopt(me.bags[me.cur])
	}

	me.opCount++
	if me.opCount%epochCheckOps != 0 {
		return
	}
	// Amortized scan: check one other thread per operation. Vacated slots
	// are skipped — a departed participant has no in-flight operation, so
	// the epoch must not wait on its stale announcement.
	if !d.e.reg.isLive(me.scanIdx) || d.th[me.scanIdx].announced.v.Load() == ge {
		me.scanIdx++
		if me.scanIdx >= d.e.cfg.Threads {
			me.scanIdx = 0
			if d.e.epochs.CompareAndSwap(ge, ge+1) {
				d.e.sampleGarbage(tid)
			}
		}
	}
}

// Retire places o in the limbo bag of the global epoch read now, not of the
// thread's announcement: the global epoch may be one ahead of it, and a
// reader that opened its operation there can still reach o, so o must wait
// two epochs from the later of the two.
func (d *DEBRA) Retire(tid int, o *simalloc.Object) {
	me := &d.th[tid]
	bag := &me.bags[d.e.epochs.Load()%3]
	*bag = append(*bag, o)
	d.e.noteRetire(tid)
}

// Join occupies a vacated slot and primes its announcement at the current
// epoch, so the joiner counts toward — without stalling — the next advance.
func (d *DEBRA) Join() (int, error) {
	slot, err := d.e.reg.join()
	if err != nil {
		return -1, err
	}
	me := &d.th[slot]
	ge := d.e.epochs.Load()
	me.cur = int(ge % 3)
	me.scanIdx = 0
	me.opCount = 0
	me.announced.v.Store(ge)
	return slot, nil
}

// Leave hands the slot's three limbo bags to the orphan queue.
func (d *DEBRA) Leave(tid int) {
	me := &d.th[tid]
	d.depart(tid, &me.bags[0], &me.bags[1], &me.bags[2])
}

// Drain adopts pending orphans into the current bag and frees all three.
func (d *DEBRA) Drain(tid int) {
	me := &d.th[tid]
	d.drain(tid, me.cur, &me.bags[0], &me.bags[1], &me.bags[2])
}
