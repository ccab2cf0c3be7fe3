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

// TryAcquired reports whether the lock is currently held (for tests).
func (l *ticketLock) TryAcquired() bool { return l.owner.Load() != l.next.Load() }

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
	return t
}

func (t *DGTree) Name() string { return "dgtree" }

// Size returns the number of keys.
func (t *DGTree) Size() int64 { return t.size.total() }

// Quiesce and Park implement Set: the DGT tree's host nodes are the
// collector's.
func (t *DGTree) Quiesce(int) {}
func (t *DGTree) Park(int)    {}

func (t *DGTree) newDGNode(tid int, key int64, leaf bool) *dgNode {
	obj := t.alloc.Alloc(tid, DGTreeNodeBytes)
	t.rec.OnAlloc(tid, obj)
	return &dgNode{obj: obj, key: key, leaf: leaf}
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
// parent, directions taken, and the leaf, every real node on the path
// published through the guard.
func (t *DGTree) seek(tid int, key int64) (gp *dgNode, gpRight bool, p *dgNode, pRight bool, leaf *dgNode) {
	g := t.guards[tid]
	gp = nil
	p = t.root
	pRight = dgGoRight(p, key)
	cur := p.child(pRight).Load()
	depth := 0
	for !cur.leaf {
		if g != nil && cur.obj != nil {
			g.Protect(depth%3, cur.obj)
		}
		depth++
		gp, gpRight = p, pRight
		p = cur
		pRight = dgGoRight(p, key)
		cur = p.child(pRight).Load()
	}
	// The leaf is visited too: the caller reads its key, and an update
	// locks its parent against it.
	if g != nil && cur.obj != nil {
		g.Protect(depth%3, cur.obj)
	}
	return gp, gpRight, p, pRight, cur
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
		t.size.add(tid, -1)
		return true
	}
}
