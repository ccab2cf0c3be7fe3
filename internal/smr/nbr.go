package smr

import (
	"math"
	"runtime"

	"repro/internal/clock"
	"repro/internal/simalloc"
)

// NBR is neutralization-based reclamation (Singh, Brown & Mashtizadeh,
// PPoPP '21). In the original, a thread whose limbo bag fills sends POSIX
// signals to all other threads; the handlers longjmp readers out of their
// read-side sections, dropping every pointer they loaded, after which the
// whole bag is free to reclaim. Go has no safe analogue of interrupting a
// goroutine, so neutralization is modelled as a round-acknowledgement
// protocol: the reclaimer publishes a new neutralization round and waits
// until every thread has acknowledged it, then frees the bag in one batch.
// A thread acknowledges only at an operation boundary, the one point where
// it holds no pointer, as the original's restarted reader holds none; a
// thread that acknowledged mid-operation and carried on would keep
// pointers into the bag it let go. So a reader never restarts, the trees
// publish nothing per node (Guard is nil), and what NBR pays is the wait,
// counted in StallNanos and StallWaits. What separates it from RCU is the
// global round, which also lets NBR+ elide rounds. The cost profile is
// preserved: one global coordination round per bag, then a large batch
// free — exactly the shape that triggers the RBF problem.
//
// NBR+ adds signal elision: a neutralization round that began after an
// object was retired and has since completed proves the object unreachable.
// Each retire reads the round; the objects retired before the latest round
// the bag saw begin are safe once that round is done, so a full bag frees
// that prefix without a new round (the original's low-watermark prefix),
// and neutralizes only when no such prefix is proven.
type NBR struct {
	core
	plus bool

	round pad64 // current neutralization round
	// acks holds each thread's announcement: the round its open operation
	// began in, or idle outside an operation.
	acks []pad64
	done pad64 // rounds fully acknowledged (for elision)
	th   []nbrThread
}

// idle is the announcement of a thread outside any operation: it holds no
// reference, so it acknowledges every round.
const idle = math.MaxInt64

type nbrThread struct {
	bag []*simalloc.Object
	// seen is the round the latest retire read, and safe the bag length
	// when a retire first read it: bag[:safe] was retired before round
	// seen began, so it is free to reclaim once done reaches seen.
	seen int64
	safe int
	_    [3]int64
}

// newNBR returns the registry constructor of NBR (plus=false) or NBR+.
func newNBR(plus bool) func(string, Config, bool) Reclaimer {
	return func(name string, cfg Config, af bool) Reclaimer {
		n := &NBR{core: newCore(name, cfg, af), plus: plus}
		n.acks = make([]pad64, cfg.Threads)
		for t := range n.acks {
			n.acks[t].v.Store(idle)
		}
		n.th = make([]nbrThread, cfg.Threads)
		return n
	}
}

// BeginOp announces the round the operation begins in. It loads the round
// before it stores the announcement, and a neutralizer adds to the round
// before it loads the announcements, so either the neutralizer sees this
// announcement below its round and waits for EndOp, or every load of this
// operation follows the round's increment, and with it every unlink in the
// bag that round frees.
func (n *NBR) BeginOp(tid int) { n.acks[tid].v.Store(n.round.v.Load()) }

// EndOp announces the thread idle, which acknowledges every round, and
// pumps the freer.
func (n *NBR) EndOp(tid int) {
	n.acks[tid].v.Store(idle)
	n.pump(tid)
}

// Retire appends to the bag; a full bag frees its proven prefix without a
// round (NBR+), or else neutralizes and frees the whole bag.
func (n *NBR) Retire(tid int, o *simalloc.Object) {
	me := &n.th[tid]
	if r := n.round.v.Load(); r != me.seen {
		me.seen, me.safe = r, len(me.bag)
	}
	if len(me.bag) == 0 {
		// Adoption point: orphans enter an empty bag, whose proven prefix
		// is empty, so they wait beside o for a round that begins after this
		// retire read the round: all that is known of them is that they
		// were unlinked before it, as o was.
		me.safe = 0
		me.bag = n.adopt(me.bag)
	}
	me.bag = append(me.bag, o)
	n.e.noteRetire(tid)
	if len(me.bag) < n.e.cfg.BatchSize {
		return
	}
	if n.plus && me.safe > 0 && n.done.v.Load() >= me.seen {
		n.freeBatch(tid, me.bag[:me.safe])
		rest := copy(me.bag, me.bag[me.safe:])
		clear(me.bag[rest:])
		me.bag, me.safe = me.bag[:rest], 0
		return
	}
	n.neutralize(tid)
	n.freeBatch(tid, me.bag)
	me.bag = me.bag[:0]
}

// neutralize starts a round and waits for every thread to acknowledge it.
func (n *NBR) neutralize(tid int) {
	// Reclamation-stall accounting, as in RCU.synchronize: the
	// acknowledgement wait is NBR's blocking grace period.
	defer n.e.noteStallWait(clock.Now())
	r := n.round.v.Add(1)
	// A thread inside an operation retires last, after its final
	// dereference, so it acknowledges its own round: left at the round its
	// operation began in, two neutralizers would wait on each other. An
	// idle thread (a retire outside any operation) stays idle, or the next
	// round would wait on it for good.
	if n.acks[tid].v.Load() != idle {
		n.acks[tid].v.Store(r)
	}
	for t := 0; t < n.e.cfg.Threads; t++ {
		for n.acks[t].v.Load() < r {
			if n.e.stopped() {
				return
			}
			runtime.Gosched()
		}
	}
	n.done.v.Store(r)
	n.e.epochs.Add(1)
	n.e.sampleGarbage(tid)
}

// Leave announces the slot idle, so no round waits on it (and a joiner
// starts idle, with nothing to re-prime), and hands its bag to the orphan
// queue.
func (n *NBR) Leave(tid int) {
	n.acks[tid].v.Store(idle)
	n.depart(tid, &n.th[tid].bag)
}

// Drain frees everything pending — including orphans — unconditionally.
func (n *NBR) Drain(tid int) { n.drain(tid, 0, &n.th[tid].bag) }
