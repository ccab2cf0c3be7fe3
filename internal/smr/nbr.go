package smr

import (
	"runtime"

	"repro/internal/clock"
	"repro/internal/simalloc"
)

// NBR is neutralization-based reclamation (Singh, Brown & Mashtizadeh,
// PPoPP '21). In the original, a thread whose limbo bag fills sends POSIX
// signals to all other threads; the handlers longjmp readers out of their
// read-side sections, after which the whole bag is free to reclaim. Go has
// no safe analogue of interrupting a goroutine, so neutralization is
// modelled as a round-acknowledgement protocol: the reclaimer publishes a
// new neutralization round, readers acknowledge it at their next operation
// boundary or Protect checkpoint (where the original would take the
// signal), and the reclaimer waits for all acknowledgements before freeing
// the bag in one batch. The cost profile is preserved: one global
// coordination round per bag, then a large batch free — exactly the shape
// that triggers the RBF problem.
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

	round  pad64   // current neutralization round
	acks   []pad64 // per-thread acknowledged round
	done   pad64   // rounds fully acknowledged (for elision)
	guards []Guard
	th     []nbrThread
}

type nbrThread struct {
	bag []*simalloc.Object
	// seen is the round the latest retire read, and safe the bag length
	// when a retire first read it: bag[:safe] was retired before round
	// seen began, so it is free to reclaim once done reaches seen.
	seen int64
	safe int
	// active is 1 while the thread is inside an operation. An idle thread
	// holds no references, so a neutralizer treats it as implicitly
	// acknowledged — mirroring the original, where signals reach idle
	// threads immediately.
	active pad64
	_      [3]int64
}

// newNBR returns the registry constructor of NBR (plus=false) or NBR+.
func newNBR(plus bool) func(string, Config, bool) Reclaimer {
	return func(name string, cfg Config, af bool) Reclaimer {
		n := &NBR{core: newCore(name, cfg, af), plus: plus}
		n.acks = make([]pad64, cfg.Threads)
		n.guards = make([]Guard, cfg.Threads)
		for tid := range n.guards {
			n.guards[tid] = Guard{mode: GuardAck, round: &n.round, ack: &n.acks[tid]}
		}
		n.th = make([]nbrThread, cfg.Threads)
		return n
	}
}

// Guard returns tid's zero-dispatch protection handle: a direct
// neutralization-round acknowledgement checkpoint.
func (n *NBR) Guard(tid int) *Guard { return &n.guards[tid] }

// ack acknowledges any pending neutralization round; this is where the
// original algorithm's signal handler would run.
func (n *NBR) ack(tid int) {
	r := n.round.v.Load()
	if n.acks[tid].v.Load() != r {
		n.acks[tid].v.Store(r)
	}
}

// BeginOp marks the thread active and acknowledges pending rounds.
func (n *NBR) BeginOp(tid int) {
	n.th[tid].active.v.Store(1)
	n.ack(tid)
}

// EndOp acknowledges pending rounds, marks the thread idle, and pumps the
// freer.
func (n *NBR) EndOp(tid int) {
	n.ack(tid)
	n.th[tid].active.v.Store(0)
	n.pump(tid)
}

// Protect is a neutralization checkpoint.
func (n *NBR) Protect(tid int, _ int, _ *simalloc.Object) { n.ack(tid) }

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
	n.acks[tid].v.Store(r)
	for t := 0; t < n.e.cfg.Threads; t++ {
		for n.acks[t].v.Load() < r && n.th[t].active.v.Load() == 1 {
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

// Join occupies a vacated slot and primes its acknowledgement at the
// current round, so an in-flight neutralization never waits on the joiner
// for a round that predates it.
func (n *NBR) Join() (int, error) {
	slot, err := n.e.reg.join()
	if err != nil {
		return -1, err
	}
	n.acks[slot].v.Store(n.round.v.Load())
	return slot, nil
}

// Leave marks the slot idle (neutralizers treat idle threads as implicitly
// acknowledged, so no round ever waits on it) and hands its bag to the
// orphan queue.
func (n *NBR) Leave(tid int) {
	me := &n.th[tid]
	me.active.v.Store(0)
	n.depart(tid, &me.bag)
}

// Drain frees everything pending — including orphans — unconditionally.
func (n *NBR) Drain(tid int) { n.drain(tid, 0, &n.th[tid].bag) }
