package smr

import (
	"runtime"

	"repro/internal/clock"
	"repro/internal/simalloc"
)

// RCU models the read-copy-update style evaluated by Hart et al.: readers
// bracket operations with a per-thread counter (odd while inside a
// read-side critical section), and a thread whose limbo bag reaches
// BatchSize performs a synchronous grace-period wait — polling until every
// other thread has either left its critical section or passed through a new
// one — before freeing the whole bag.
//
// The synchronous wait makes reclamation latency visible in the operation
// path, and the bag-at-once free makes RCU a batch-freeing scheme subject
// to the RBF problem; rcu_af keeps the grace-period wait but queues the bag
// for amortized freeing.
type RCU struct {
	core
	th []rcuThread
}

type rcuThread struct {
	// counter is odd while the thread is inside an operation.
	counter pad64
	// syncing is 1 while the thread is parked in synchronize. The data
	// structures call Retire only after they are done dereferencing
	// protected nodes (retire-then-return is the last thing an update
	// does), so a thread blocked in its own grace-period wait is effectively
	// quiescent — and other synchronizers must treat it as such: two
	// threads whose bags fill inside overlapping critical sections would
	// otherwise spin on each other's frozen odd counters forever (a
	// livelock that a FixedOps trial, which has no wall-clock Stop to bail
	// it out, would never escape).
	syncing pad64
	bag     []*simalloc.Object
	// snap is synchronize's counter snapshot, kept per thread so a grace
	// period allocates nothing.
	snap []int64
	_    [2]int64
}

func newRCU(name string, cfg Config, af bool) Reclaimer {
	r := &RCU{core: newCore(name, cfg, af), th: make([]rcuThread, cfg.Threads)}
	for t := range r.th {
		r.th[t].snap = make([]int64, cfg.Threads)
	}
	return r
}

// BeginOp enters the read-side critical section (counter becomes odd).
func (r *RCU) BeginOp(tid int) {
	c := &r.th[tid].counter.v
	c.Store(c.Load() + 1)
}

// EndOp leaves the critical section (counter becomes even) and pumps the
// freer.
func (r *RCU) EndOp(tid int) {
	c := &r.th[tid].counter.v
	c.Store(c.Load() + 1)
	r.pump(tid)
}

// Retire adds o to the bag; when the bag reaches BatchSize the thread waits
// for a grace period and hands the bag to the freer.
func (r *RCU) Retire(tid int, o *simalloc.Object) {
	me := &r.th[tid]
	me.bag = append(me.bag, o)
	r.e.noteRetire(tid)
	if len(me.bag) < r.e.cfg.BatchSize {
		return
	}
	// Adoption point: orphans join the bag before the grace-period wait.
	// They were unlinked before their owner departed, so any reader that
	// could still reference them is inside a critical section synchronize
	// is about to wait out.
	me.bag = r.adopt(me.bag)
	r.synchronize(tid)
	r.freeBatch(tid, me.bag)
	me.bag = me.bag[:0]
}

// synchronize waits until every other thread has exited the read-side
// critical section it was in when synchronize began — or is itself parked
// in synchronize (see rcuThread.syncing).
func (r *RCU) synchronize(tid int) {
	// Reclamation-stall accounting: the whole synchronize is a blocking
	// wait in the operation path, the latency the paper's batch-free
	// critique is about. Once per filled bag, so the stamps are cheap and
	// counted (Stats.ClockReads).
	defer r.e.noteStallWait(clock.Now())
	me := &r.th[tid]
	me.syncing.v.Store(1)
	defer me.syncing.v.Store(0)
	snap := me.snap
	for t := range r.th {
		snap[t] = r.th[t].counter.v.Load()
	}
	for t := range r.th {
		if t == tid {
			continue
		}
		// Wait only for threads caught inside a critical section.
		if snap[t]%2 == 0 {
			continue
		}
		for r.th[t].counter.v.Load() == snap[t] {
			if r.th[t].syncing.v.Load() == 1 {
				// t is parked in its own grace-period wait: it has finished
				// dereferencing protected nodes, so it cannot hold a
				// reference into this thread's bag.
				break
			}
			if r.e.stopped() {
				return
			}
			runtime.Gosched()
		}
	}
	r.e.epochs.Add(1)
	r.e.sampleGarbage(tid)
}

// Leave hands the slot's limbo bag to the orphan queue. The counter stays
// even — its occupant leaves outside any critical section — so in-flight
// grace-period waits already treat the slot as quiescent, and that is also
// exactly the state a joiner recycling the slot needs: nothing is re-primed.
func (r *RCU) Leave(tid int) { r.depart(tid, &r.th[tid].bag) }

// Drain frees the bag, pending orphans, and the freeable list
// unconditionally.
func (r *RCU) Drain(tid int) { r.drain(tid, 0, &r.th[tid].bag) }
