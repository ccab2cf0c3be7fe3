package ds

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/simalloc"
	"repro/internal/smr"
)

// OCCTree is an optimistic-concurrency internal BST with lazy deletion,
// standing in for Bronson et al.'s OCC AVL tree. Like the original, it has
// the paper's allocation-light profile (Fig. 1): one small 64-byte node
// allocated per successful insert of a new key, and no allocation on
// delete. Deletes of nodes with two children mark the node logically
// (it remains as a routing node and is revived by a later insert of the
// same key); nodes with at most one child are physically unlinked and
// retired.
//
// The substitution from the AVL original is recorded in README.md ("Layer
// architecture", "The three sets"): we drop rotations (uniform random keys
// keep expected depth logarithmic) but keep the optimistic read-only
// traversal with lock-and-validate updates, which is the concurrency scheme
// Fig. 1 contrasts against the ABtree.
type OCCTree struct {
	alloc  simalloc.Allocator
	rec    smr.Reclaimer
	guards []*smr.Guard
	// head is an unretirable sentinel whose right child is the tree.
	head *occNode
	size *sizeCtr
}

type occNode struct {
	obj         *simalloc.Object
	key         int64
	left, right atomic.Pointer[occNode]
	mu          sync.Mutex
	marked      atomic.Bool // logically deleted (routing node)
	retired     atomic.Bool // physically unlinked
}

// NewOCCTree builds an empty tree over the allocator and reclaimer.
func NewOCCTree(alloc simalloc.Allocator, rec smr.Reclaimer) *OCCTree {
	t := &OCCTree{alloc: alloc, rec: rec, guards: guardsOf(rec, alloc.Threads()), size: newSizeCtr(alloc.Threads())}
	t.head = &occNode{key: math.MinInt64}
	return t
}

func (t *OCCTree) Name() string { return "occtree" }

// Size returns the number of (unmarked) keys.
func (t *OCCTree) Size() int64 { return t.size.total() }

// Quiesce and Park implement Set: the OCCtree's host nodes are the
// collector's.
func (t *OCCTree) Quiesce(int) {}
func (t *OCCTree) Park(int)    {}

func (t *OCCTree) newOCCNode(tid int, key int64) *occNode {
	obj := t.alloc.Alloc(tid, OCCTreeNodeBytes)
	t.rec.OnAlloc(tid, obj)
	return &occNode{obj: obj, key: key}
}

// child returns the atomic slot for the given direction.
func (n *occNode) child(right bool) *atomic.Pointer[occNode] {
	if right {
		return &n.right
	}
	return &n.left
}

// seek descends optimistically to the node holding key, or to the parent
// under which key would attach. It returns (parent, dirRight, node) where
// node is nil when key is absent. Each level is one visit: load the parent's
// child slot, publish the child through the guard, then re-read the slot
// and the parent's retired flag and restart from the head if either moved.
// Epoch-based reclaimers have a nil guard and skip both.
func (t *OCCTree) seek(tid int, key int64) (p *occNode, right bool, n *occNode) {
	g := t.guards[tid]
retry:
	for {
		p, right = t.head, true
		for depth := 0; ; depth++ {
			n = p.child(right).Load()
			if n == nil {
				return p, right, nil
			}
			if testHookLoaded != nil {
				testHookLoaded()
			}
			if g != nil {
				g.Protect(depth%smr.HazardSlots, n.obj)
				if p.child(right).Load() != n || p.retired.Load() {
					continue retry
				}
			}
			if testHookVisit != nil {
				testHookVisit(n.obj)
			}
			if key == n.key {
				return p, right, n
			}
			p, right = n, key > n.key
		}
	}
}

// Contains reports whether key is present (found and not marked).
func (t *OCCTree) Contains(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	_, _, n := t.seek(tid, key)
	return n != nil && !n.marked.Load()
}

// Insert adds key, reporting whether it was absent. Reviving a marked
// routing node allocates nothing; attaching a new leaf allocates one
// 64-byte node.
func (t *OCCTree) Insert(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	for {
		p, right, n := t.seek(tid, key)
		if n != nil {
			if !n.marked.Load() {
				return false
			}
			n.mu.Lock()
			if n.retired.Load() {
				n.mu.Unlock()
				continue // unlinked under us; retry
			}
			if !n.marked.Load() {
				n.mu.Unlock()
				return false // someone revived it first
			}
			n.marked.Store(false)
			n.mu.Unlock()
			t.size.add(tid, 1)
			return true
		}
		p.mu.Lock()
		if p.retired.Load() || p.child(right).Load() != nil {
			p.mu.Unlock()
			continue
		}
		p.child(right).Store(t.newOCCNode(tid, key))
		p.mu.Unlock()
		t.size.add(tid, 1)
		return true
	}
}

// Delete removes key, reporting whether it was present. A node with two
// children is marked in place (no retire, no allocation); a node with at
// most one child is spliced out and retired.
func (t *OCCTree) Delete(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	for {
		p, right, n := t.seek(tid, key)
		if n == nil || n.marked.Load() {
			return false
		}
		p.mu.Lock()
		n.mu.Lock()
		if p.retired.Load() || n.retired.Load() ||
			p.child(right).Load() != n || n.marked.Load() {
			n.mu.Unlock()
			p.mu.Unlock()
			continue
		}
		l, r := n.left.Load(), n.right.Load()
		unlinked := false
		if l != nil && r != nil {
			// Two children: logical delete; n stays as a routing node.
			n.marked.Store(true)
		} else {
			child := l
			if child == nil {
				child = r
			}
			p.child(right).Store(child)
			n.retired.Store(true)
			unlinked = true
		}
		n.mu.Unlock()
		p.mu.Unlock()
		if unlinked {
			// Retire only after both locks are released: a bag-full Retire
			// can block on a grace period (RCU synchronize, NBR
			// neutralization), and a peer stuck on p.mu can never reach its
			// next quiescent point — retire-under-lock deadlocks the pair.
			// abtree and dgtree already retire after their unlocks.
			t.rec.Retire(tid, n.obj)
		}
		t.size.add(tid, -1)
		return true
	}
}
