package ds

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/simalloc"
	"repro/internal/smr"
)

// DGTree is the David-Guerraoui-Trigonakis external (leaf-oriented) binary
// search tree with per-node ticket locks (appendix D of the paper). All
// keys live in leaves; internal nodes are routing-only. An insert replaces
// a leaf with a new internal node over the old leaf and a new leaf
// (two allocations); a delete splices out a leaf and its parent
// (two retirements, no allocation).
type DGTree struct {
	alloc  simalloc.Allocator
	rec    smr.Reclaimer
	guards []*smr.Guard
	root   *dgNode // sentinel internal; never retired
	size   *sizeCtr
	// Quiesce and Park: unlinked nodes are reused after the callers' grace
	// period (TestRecycledNodeWaitsForReaders).
	recycler[*dgNode]
}

type dgNode struct {
	obj         *simalloc.Object
	key         int64
	leaf        bool
	left, right atomic.Pointer[dgNode]
	lk          ticketLock
	retired     atomic.Bool
}

// ticketLock is a FIFO spinlock, as used by the original DGT tree.
type ticketLock struct {
	next  atomic.Int64
	owner atomic.Int64
}

// Lock acquires the lock in ticket order.
func (l *ticketLock) Lock() {
	t := l.next.Add(1) - 1
	for l.owner.Load() != t {
		runtime.Gosched()
	}
}

// Unlock releases the lock to the next ticket holder.
func (l *ticketLock) Unlock() { l.owner.Add(1) }

const dgInf = math.MaxInt64

// NewDGTree builds an empty tree. Two nested sentinel internals guarantee
// every real leaf has both a parent and a grandparent, so deletions never
// touch the root slot.
func NewDGTree(alloc simalloc.Allocator, rec smr.Reclaimer) *DGTree {
	t := &DGTree{alloc: alloc, rec: rec, guards: guardsOf(rec, alloc.Threads()), size: newSizeCtr(alloc.Threads())}
	inner := &dgNode{key: dgInf}
	inner.left.Store(&dgNode{key: dgInf, leaf: true})
	inner.right.Store(&dgNode{key: dgInf, leaf: true})
	t.root = &dgNode{key: dgInf}
	t.root.left.Store(inner)
	t.root.right.Store(&dgNode{key: dgInf, leaf: true})
	t.setup(alloc.Threads())
	return t
}

func (t *DGTree) Name() string { return "dgtree" }

// Size returns the number of keys.
func (t *DGTree) Size() int64 { return t.size.total() }

// tier implements hostNode: leaves and internal nodes have one size.
func (n *dgNode) tier() int { return 0 }

// reset implements hostNode.
func (n *dgNode) reset() {
	n.left.Store(nil)
	n.right.Store(nil)
	n.retired.Store(false)
}

// newDGNode allocates a node's simulated object and its host struct, tid's
// last recycled node when there is one.
func (t *DGTree) newDGNode(tid int, key int64, leaf bool) *dgNode {
	obj := t.alloc.Alloc(tid, DGTreeNodeBytes)
	t.rec.OnAlloc(tid, obj)
	n := t.reuse(tid, 0)
	if n == nil {
		n = new(dgNode)
	}
	n.obj, n.key, n.leaf = obj, key, leaf
	return n
}

func (n *dgNode) child(right bool) *atomic.Pointer[dgNode] {
	if right {
		return &n.right
	}
	return &n.left
}

// dgGoRight is the routing rule: keys >= n.key go right.
func dgGoRight(n *dgNode, key int64) bool { return key >= n.key }

// seek descends to the leaf covering key, returning the grandparent,
// parent, directions taken, and the leaf. Each level, the leaf included, is
// one visit: load the parent's child slot, publish the child through the
// guard, then re-read the slot and the parent's retired flag and restart
// from the root if either moved. Sentinels have no object and are never
// retired, so they are neither published nor validated; epoch-based
// reclaimers have a nil guard and skip both.
func (t *DGTree) seek(tid int, key int64) (gp *dgNode, gpRight bool, p *dgNode, pRight bool, leaf *dgNode) {
	g := t.guards[tid]
retry:
	for {
		gp, p = nil, t.root
		pRight = dgGoRight(p, key)
		for depth := 0; ; depth++ {
			cur := p.child(pRight).Load()
			if testHookLoaded != nil {
				testHookLoaded()
			}
			if g != nil && cur.obj != nil {
				g.Protect(depth%smr.HazardSlots, cur.obj)
				if p.child(pRight).Load() != cur || p.retired.Load() {
					continue retry
				}
			}
			if testHookVisit != nil {
				testHookVisit(cur.obj)
			}
			if cur.leaf {
				return gp, gpRight, p, pRight, cur
			}
			gp, gpRight = p, pRight
			p, pRight = cur, dgGoRight(cur, key)
		}
	}
}

// Contains reports whether key is present.
func (t *DGTree) Contains(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	_, _, _, _, leaf := t.seek(tid, key)
	return leaf.key == key
}

// Insert adds key, reporting whether it was absent. A successful insert
// allocates a new leaf and a new routing internal node.
func (t *DGTree) Insert(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	for {
		_, _, p, pRight, leaf := t.seek(tid, key)
		if leaf.key == key {
			return false
		}
		p.lk.Lock()
		if p.retired.Load() || p.child(pRight).Load() != leaf {
			p.lk.Unlock()
			continue
		}
		newLeaf := t.newDGNode(tid, key, true)
		// The routing key is the larger of the two; the smaller key's leaf
		// goes left (keys >= routing key go right).
		routeKey := key
		if leaf.key > routeKey {
			routeKey = leaf.key
		}
		internal := t.newDGNode(tid, routeKey, false)
		if key < leaf.key {
			internal.left.Store(newLeaf)
			internal.right.Store(leaf)
		} else {
			internal.left.Store(leaf)
			internal.right.Store(newLeaf)
		}
		p.child(pRight).Store(internal)
		p.lk.Unlock()
		t.size.add(tid, 1)
		return true
	}
}

// Delete removes key, reporting whether it was present. A successful delete
// splices the leaf's sibling into the grandparent and retires both the leaf
// and its parent.
func (t *DGTree) Delete(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	for {
		gp, gpRight, p, pRight, leaf := t.seek(tid, key)
		if leaf.key != key {
			return false
		}
		// The sentinels guarantee gp != nil for any real leaf.
		gp.lk.Lock()
		p.lk.Lock()
		if gp.retired.Load() || p.retired.Load() ||
			gp.child(gpRight).Load() != p || p.child(pRight).Load() != leaf {
			p.lk.Unlock()
			gp.lk.Unlock()
			continue
		}
		sibling := p.child(!pRight).Load()
		gp.child(gpRight).Store(sibling)
		p.retired.Store(true)
		p.lk.Unlock()
		gp.lk.Unlock()
		t.rec.Retire(tid, p.obj)
		t.rec.Retire(tid, leaf.obj)
		t.recycle(tid, p)
		t.recycle(tid, leaf)
		t.size.add(tid, -1)
		return true
	}
}
