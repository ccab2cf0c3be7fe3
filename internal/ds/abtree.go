package ds

import (
	"sync"
	"sync/atomic"

	"repro/internal/simalloc"
	"repro/internal/smr"
)

// ABtree sizing. Leaves hold up to abLeafCap keys; internal nodes hold up to
// abInternalCap children. The wide internal fan-out keeps internal splits
// rare after prefill, so the steady-state allocation profile is the paper's:
// one or two 240-byte nodes allocated and retired per update.
const (
	abLeafCap     = 16
	abInternalCap = 64
)

// abNode is one ABtree node on the host. A leaf is this struct alone: its
// keys live inline, so the copy-on-write replacement an update publishes is
// one Go allocation (152 bytes, the 160-byte size class), immutable from
// then on. An internal node also owns an abInternal; leaves leave in nil. A
// node's slot in its parent is guarded by the parent's mu (or the tree's
// rootMu for the root).
//
// Host nodes belong to the Go collector and are never recycled by hand: what
// the experiment models is obj's lifecycle in the simulated allocator, and
// the collector is what keeps a reader safe when a reclaimer frees obj
// while the reader still holds the node.
type abNode struct {
	obj  *simalloc.Object
	in   *abInternal
	n    int              // leaf: keys in use
	keys [abLeafCap]int64 // leaf: keys[:n], strictly ascending
}

// abInternal is the routing part of an internal node: an immutable key array
// and mutable (atomic) child slots, child i covering keys[i-1] <= k < keys[i].
type abInternal struct {
	keys     []int64
	children []atomic.Pointer[abNode] // len(keys)+1 slots
	mu       sync.Mutex               // guards child slots and retirement
	retired  atomic.Bool
}

// abSlot names the slot a node hangs from: children[idx] of n, or the tree's
// root slot when n is nil.
type abSlot struct {
	n   *abNode
	idx int
}

// ABTree is a concurrent (a,b)-tree in the style of Brown's lock-free
// ABtree: leaf-oriented, copy-on-write leaves, relaxed rebalancing
// (overfull internal nodes are split locally, single-child internal nodes
// collapse). Lookups are lock-free over atomic child pointers; updates lock
// at most two ancestor levels top-down.
type ABTree struct {
	alloc  simalloc.Allocator
	rec    smr.Reclaimer
	disp   protectDispatch
	root   atomic.Pointer[abNode]
	rootMu sync.Mutex // guards the root slot
	size   *sizeCtr
}

// NewABTree builds an empty tree over the allocator and reclaimer.
func NewABTree(alloc simalloc.Allocator, rec smr.Reclaimer) *ABTree {
	t := &ABTree{alloc: alloc, rec: rec, size: newSizeCtr(alloc.Threads())}
	t.disp = newProtectDispatch(rec, alloc.Threads())
	t.root.Store(t.newNode(0))
	return t
}

func (t *ABTree) Name() string { return "abtree" }

// Size returns the number of keys.
func (t *ABTree) Size() int64 { return t.size.total() }

// newNode allocates a node's simulated object and its host struct; as
// returned it is an empty leaf.
func (t *ABTree) newNode(tid int) *abNode {
	obj := t.alloc.Alloc(tid, ABTreeNodeBytes)
	t.rec.OnAlloc(tid, obj)
	return &abNode{obj: obj}
}

// newLeaf builds a leaf holding keys (ascending, at most abLeafCap).
func (t *ABTree) newLeaf(tid int, keys []int64) *abNode {
	n := t.newNode(tid)
	n.n = copy(n.keys[:], keys)
	return n
}

// leafWith builds the copy of leaf old that also holds key, at the position
// i that leafFind(old, key) reported. old must not be full.
func (t *ABTree) leafWith(tid int, old *abNode, i int, key int64) *abNode {
	n := t.newNode(tid)
	insertKey(n.keys[:], old.keys[:old.n], i, key)
	n.n = old.n + 1
	return n
}

// insertKey writes src with key inserted at position i into dst.
func insertKey(dst, src []int64, i int, key int64) {
	copy(dst[:i], src[:i])
	dst[i] = key
	copy(dst[i+1:], src[i:])
}

// leafWithout builds the copy of leaf old that lacks the key at position i.
func (t *ABTree) leafWithout(tid int, old *abNode, i int) *abNode {
	n := t.newNode(tid)
	copy(n.keys[:i], old.keys[:i])
	copy(n.keys[i:], old.keys[i+1:old.n])
	n.n = old.n - 1
	return n
}

// newInternal builds an internal node from keys and children. children must
// have len(keys)+1 entries.
func (t *ABTree) newInternal(tid int, keys []int64, children []*abNode) *abNode {
	n := t.newNode(tid)
	n.in = &abInternal{keys: keys, children: make([]atomic.Pointer[abNode], len(children))}
	for i, c := range children {
		n.in.children[i].Store(c)
	}
	return n
}

func (t *ABTree) retire(tid int, n *abNode) { t.rec.Retire(tid, n.obj) }

// childIndex returns the child slot covering key: the first i with
// key < keys[i], else len(keys).
func childIndex(in *abInternal, key int64) int {
	lo, hi := 0, len(in.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key < in.keys[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafFind returns the position key holds in leaf n, or would be inserted
// at — the first i with keys[i] >= key, else n.n — and whether it is there.
func leafFind(n *abNode, key int64) (i int, found bool) {
	for i = 0; i < n.n; i++ {
		if k := n.keys[i]; k >= key {
			return i, k == key
		}
	}
	return i, false
}

// descend walks from the root to the leaf covering key, publishing
// protection for each visited node. It returns the leaf, the slot the leaf
// hangs from and the slot its parent hangs from: the two levels an update
// may lock. Protection routes through the guard when the reclaimer exposes
// one (a concrete call the compiler can see through), skips publication
// entirely for epoch-based reclaimers (nil guard, nil legacy), and falls
// back to the Reclaimer interface only under smr.LegacyDispatch.
func (t *ABTree) descend(tid int, key int64) (leaf *abNode, at, above abSlot) {
	g, legacy := t.disp.handles(tid)
	cur := t.root.Load()
	if g != nil {
		g.Protect(0, cur.obj)
	} else if legacy != nil {
		legacy.Protect(tid, 0, cur.obj)
	}
	for depth := 1; cur.in != nil; depth++ {
		above = at
		at = abSlot{cur, childIndex(cur.in, key)}
		cur = cur.in.children[at.idx].Load()
		if g != nil {
			g.Protect(depth%3, cur.obj)
		} else if legacy != nil {
			legacy.Protect(tid, depth%3, cur.obj)
		}
	}
	return cur, at, above
}

// Contains reports whether key is present. The traversal is lock-free.
func (t *ABTree) Contains(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	leaf, _, _ := t.descend(tid, key)
	_, found := leafFind(leaf, key)
	return found
}

// lockSlot locks the owner of slot s (the parent's mu, or rootMu for the
// root slot) and validates that s still points at n. It returns the slot and
// the mutex it now holds, or false when validation fails and the caller
// must retry.
func (t *ABTree) lockSlot(s abSlot, n *abNode) (*atomic.Pointer[abNode], *sync.Mutex, bool) {
	if s.n == nil {
		t.rootMu.Lock()
		if t.root.Load() != n {
			t.rootMu.Unlock()
			return nil, nil, false
		}
		return &t.root, &t.rootMu, true
	}
	p := s.n.in
	p.mu.Lock()
	slot := &p.children[s.idx]
	if p.retired.Load() || slot.Load() != n {
		p.mu.Unlock()
		return nil, nil, false
	}
	return slot, &p.mu, true
}

// Insert adds key, reporting whether it was absent.
func (t *ABTree) Insert(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	for {
		if ok, done := t.tryInsert(tid, key); done {
			return ok
		}
	}
}

func (t *ABTree) tryInsert(tid int, key int64) (inserted, done bool) {
	leaf, at, above := t.descend(tid, key)
	i, found := leafFind(leaf, key)
	if found {
		return false, true
	}
	if leaf.n < abLeafCap {
		// Common case: replace the leaf with a copy containing key.
		slot, mu, ok := t.lockSlot(at, leaf)
		if !ok {
			return false, false
		}
		slot.Store(t.leafWith(tid, leaf, i, key))
		mu.Unlock()
		t.retire(tid, leaf)
		t.size.add(tid, 1)
		return true, true
	}
	if !t.splitLeaf(tid, at, above, leaf, i, key) {
		return false, false
	}
	t.size.add(tid, 1)
	return true, true
}

// splitLeaf replaces a full leaf, plus key at position i, with two halves.
// For a root leaf the two halves hang off a new internal root; otherwise
// the parent is replaced copy-on-write with the extra child (collapsing
// into a local two-child split when the parent itself would overflow).
func (t *ABTree) splitLeaf(tid int, at, above abSlot, leaf *abNode, i int, key int64) bool {
	var merged [abLeafCap + 1]int64
	insertKey(merged[:], leaf.keys[:], i, key)
	const mid = len(merged) / 2
	sep := merged[mid]

	if at.n == nil {
		t.rootMu.Lock()
		if t.root.Load() != leaf {
			t.rootMu.Unlock()
			return false
		}
		left := t.newLeaf(tid, merged[:mid])
		right := t.newLeaf(tid, merged[mid:])
		t.root.Store(t.newInternal(tid, []int64{sep}, []*abNode{left, right}))
		t.rootMu.Unlock()
		t.retire(tid, leaf)
		return true
	}

	// Lock the parent's slot owner first (top-down), then the parent.
	pn, idx := at.n, at.idx
	p := pn.in
	slot, mu, ok := t.lockSlot(above, pn)
	if !ok {
		return false
	}
	p.mu.Lock()
	if p.retired.Load() || p.children[idx].Load() != leaf {
		p.mu.Unlock()
		mu.Unlock()
		return false
	}

	left := t.newLeaf(tid, merged[:mid])
	right := t.newLeaf(tid, merged[mid:])

	// Copy-on-write parent with the split child. Child slots are stable
	// while p.mu is held.
	pk := make([]int64, 0, len(p.keys)+1)
	pk = append(pk, p.keys[:idx]...)
	pk = append(pk, sep)
	pk = append(pk, p.keys[idx:]...)
	pc := make([]*abNode, 0, len(p.children)+1)
	for i := range p.children {
		if i == idx {
			pc = append(pc, left, right)
			continue
		}
		pc = append(pc, p.children[i].Load())
	}

	var replacement *abNode
	if len(pc) <= abInternalCap {
		replacement = t.newInternal(tid, pk, pc)
	} else {
		// The parent would overflow: split it locally into two internal
		// nodes under a new two-child spine (relaxed rebalancing; the
		// spine collapses later if it goes single-child).
		m := len(pc) / 2
		lo := t.newInternal(tid, pk[:m-1:m-1], pc[:m:m])
		hi := t.newInternal(tid, pk[m:], pc[m:])
		replacement = t.newInternal(tid, []int64{pk[m-1]}, []*abNode{lo, hi})
	}
	p.retired.Store(true)
	slot.Store(replacement)
	p.mu.Unlock()
	mu.Unlock()
	t.retire(tid, leaf)
	t.retire(tid, pn)
	return true
}

// Delete removes key, reporting whether it was present.
func (t *ABTree) Delete(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	for {
		if ok, done := t.tryDelete(tid, key); done {
			return ok
		}
	}
}

func (t *ABTree) tryDelete(tid int, key int64) (deleted, done bool) {
	leaf, at, above := t.descend(tid, key)
	i, found := leafFind(leaf, key)
	if !found {
		return false, true
	}

	if leaf.n > 1 || at.n == nil {
		// Replace the leaf (an empty root leaf is fine).
		slot, mu, ok := t.lockSlot(at, leaf)
		if !ok {
			return false, false
		}
		slot.Store(t.leafWithout(tid, leaf, i))
		mu.Unlock()
		t.retire(tid, leaf)
		t.size.add(tid, -1)
		return true, true
	}

	// The leaf empties: remove it from its parent.
	if !t.removeEmptyLeaf(tid, at, above, leaf) {
		return false, false
	}
	t.size.add(tid, -1)
	return true, true
}

// removeEmptyLeaf replaces the parent copy-on-write without the emptied
// child. A parent reduced to a single child collapses: the surviving child
// takes the parent's slot directly.
func (t *ABTree) removeEmptyLeaf(tid int, at, above abSlot, leaf *abNode) bool {
	pn, idx := at.n, at.idx
	p := pn.in
	slot, mu, ok := t.lockSlot(above, pn)
	if !ok {
		return false
	}
	p.mu.Lock()
	if p.retired.Load() || p.children[idx].Load() != leaf {
		p.mu.Unlock()
		mu.Unlock()
		return false
	}

	var replacement *abNode
	if len(p.children) == 2 {
		// Collapse: the sibling takes p's place.
		replacement = p.children[1-idx].Load()
	} else {
		pk := make([]int64, 0, len(p.keys)-1)
		ki := idx
		if ki == len(p.keys) {
			ki = len(p.keys) - 1
		}
		pk = append(pk, p.keys[:ki]...)
		pk = append(pk, p.keys[ki+1:]...)
		pc := make([]*abNode, 0, len(p.children)-1)
		for i := range p.children {
			if i == idx {
				continue
			}
			pc = append(pc, p.children[i].Load())
		}
		replacement = t.newInternal(tid, pk, pc)
	}
	p.retired.Store(true)
	slot.Store(replacement)
	p.mu.Unlock()
	mu.Unlock()
	t.retire(tid, leaf)
	t.retire(tid, pn)
	return true
}
