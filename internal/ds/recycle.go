package ds

import "sync/atomic"

// hostNode is a tree's host node type (a pointer) as the recycler sees it.
type hostNode interface {
	// tier names the free list the node goes back to; the nodes of one tier
	// have the same capacity.
	tier() int
	// reset clears what a node must not keep on a free list: its child
	// pointers, which would hold retired subtrees alive, and its flags.
	reset()
}

// recTiers is the most free lists a tree keeps per thread: the ABtree's nine
// leaf capacities and three internal ones. recFreeCap caps a free list of
// small nodes (an ABtree leaf, an OCCtree or DGT node).
const (
	recTiers   = abLeafTiers + abInternalTiers
	recFreeCap = 64
)

// recCap is the longest a thread's free list of tier k grows; a node
// unlinked beyond it is left to the collector.
func recCap(k int) int {
	if k < abLeafTiers {
		return recFreeCap
	}
	return abInternalFreeCap
}

// recycler reuses a tree's unlinked host nodes, per thread and by tier, on
// the callers' own grace period (Set.Quiesce / Set.Park), never the
// reclaimer's: the experiment models a node's simulated object, whose
// lifecycle the reclaimer under test decides, and a reclaimer that frees too
// early skews the modelled statistics without corrupting the harness. Every
// tree embeds one, which makes its Quiesce and Park the tree's.
//
// It is a Fraser-style EBR over a host epoch (Fraser, Practical
// lock-freedom, 2004). Quiesce announces the epoch, and while a thread's
// announcement is e the global epoch stays e or e+1. A node unlinked while
// the global epoch is e goes to bag e%3, and once the thread sees the epoch
// at e+2 no caller can still hold it (each has quiesced or parked since), so
// the bag is reset onto the free lists reuse pops from.
type recycler[N hostNode] struct {
	epoch atomic.Uint64 // from 1
	th    []recThread[N]
}

// recThread is one thread's share of the recycler.
type recThread[N hostNode] struct {
	ann   atomic.Uint64 // epoch announced at the last Quiesce; 0 while parked
	_     [7]uint64
	epoch uint64 // the global epoch at the owner's last Quiesce
	bags  [3][]N
	free  [recTiers][]N
	_     [2]uint64 // to a whole number of cache lines
}

// testHookAnnounce, when set, runs in Quiesce between reading the global
// epoch and announcing it: the window a parked thread's read goes stale in.
var testHookAnnounce func()

// setup sizes the recycler for threads callers, every one parked.
func (r *recycler[N]) setup(threads int) {
	r.th = make([]recThread[N], threads)
	r.epoch.Store(1)
}

// Quiesce implements Set. It announces the host epoch, moves the bags the
// epoch has made safe onto tid's free lists, and advances the epoch once
// every unparked thread has announced it.
func (r *recycler[N]) Quiesce(tid int) {
	me := &r.th[tid]
	// A parked thread does not hold the epoch back, so the epoch it read
	// may have moved on by the time it announces; announce until the
	// announcement is current.
	var e uint64
	for {
		e = r.epoch.Load()
		if testHookAnnounce != nil {
			testHookAnnounce()
		}
		me.ann.Store(e)
		if r.epoch.Load() == e {
			break
		}
	}
	if e != me.epoch {
		// The bags hold epochs me.epoch-1, me.epoch and me.epoch+1, at
		// indices (me.epoch+2)%3, ...; those at or before e-2 are safe.
		for i := uint64(0); i < min(e-me.epoch, 3); i++ {
			bag := &me.bags[(me.epoch+2+i)%3]
			for _, n := range *bag {
				if k := n.tier(); len(me.free[k]) < recCap(k) {
					n.reset()
					me.free[k] = append(me.free[k], n)
				}
			}
			clear(*bag)
			*bag = (*bag)[:0]
		}
		me.epoch = e
	}
	for i := range r.th {
		if a := r.th[i].ann.Load(); a != 0 && a != e {
			return
		}
	}
	r.epoch.CompareAndSwap(e, e+1)
}

// Park implements Set.
func (r *recycler[N]) Park(tid int) { r.th[tid].ann.Store(0) }

// recycle takes n, which tid has just unlinked, into the bag of the global
// epoch read after the unlink. A parked tid leaves n to the collector.
func (r *recycler[N]) recycle(tid int, n N) {
	if me := &r.th[tid]; me.ann.Load() != 0 {
		bag := &me.bags[r.epoch.Load()%3]
		*bag = append(*bag, n)
	}
}

// reuse pops tid's last recycled node of tier k, or returns nil.
func (r *recycler[N]) reuse(tid, k int) (n N) {
	if f := &r.th[tid].free[k]; len(*f) > 0 {
		last := len(*f) - 1
		n, (*f)[last] = (*f)[last], n
		*f = (*f)[:last]
	}
	return n
}
