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

// abNode is the 40-byte head of every ABtree node on the host, and what a
// parent's child slot points at. A leaf is an abLeaf (keys is its inline
// array cut to the keys it holds, in is nil); an internal node is an
// abInternal (in points back at it, keys is nil). A node's slot in its parent
// is guarded by the parent's lock (or the tree's rootMu for the root).
//
// What the experiment models is obj's lifecycle in the simulated allocator,
// and the reclaimer under test never decides when a host node is reused. A
// leaf is recycled per thread on the caller's own grace period instead
// (Quiesce / Park, abThread); internal nodes, and every node of a caller that
// never calls Quiesce, belong to the Go collector. TestABTreeRecycledLeaf-
// WaitsForReaders pins the grace period, TestABTreeRecycledUpdateAllocsNothing
// what it saves.
type abNode struct {
	obj  *simalloc.Object
	in   *abInternal
	keys []int64 // leaf: strictly ascending, at most abLeafCap
}

// abLeaf is a leaf with its storage: A is [c]int64 for a capacity c. Its
// keys live inline, so the copy-on-write replacement an update publishes is
// one Go allocation, immutable from then on — and it is built at the
// smallest capacity that holds its keys (newNode), so it costs the host what
// it holds: leaves sit under half full in steady state, and the simulated
// node is ABTreeNodeBytes whatever the host tier.
type abLeaf[A any] struct {
	abNode
	arr A
}

// abInternal is the routing part of an internal node: n-1 routing keys and
// n = len(children) child slots, child i covering route[i-1] <= k <
// route[i]. The slices and lock point into the abTier this struct starts, so
// a node is one Go allocation; push grows both slices within it, and only
// before the node is published.
type abInternal struct {
	abNode
	route    []int64                  // strictly ascending, immutable
	children []atomic.Pointer[abNode] // every slot set; nil up to cap
	lock     *abLock
}

// abLock guards an internal node's child slots and its retirement.
type abLock struct {
	mu      sync.Mutex
	retired atomic.Bool
}

// abTier is an internal node with its storage: R is [c-1]int64 and C is
// [c]atomic.Pointer[abNode] for a capacity c. A node is built at the
// smallest of three capacities that holds its children, so a small tree's
// root does not cost what a full node does.
//
// The order of the fields is the point. A traversal reads the abInternal
// and the routing keys, all written before the node is published and never
// again, then one child slot. Every update below the node takes the lock
// and stores a child slot, so those are kept a full cache line away from the
// read-only part whatever the allocation's alignment, and readers passing
// through keep their copy of it. The lock comes last, where it shares a line
// with the highest slots only, which a node uses just before it outgrows
// the tier.
type abTier[R, C any] struct {
	abInternal
	routeArr R
	_        [56]byte
	slotArr  C
	lockHere abLock
}

// bind points the abInternal at its storage.
func (x *abTier[R, C]) bind(route []int64, slots []atomic.Pointer[abNode]) *abInternal {
	x.route, x.children, x.lock = route[:0], slots[:0], &x.lockHere
	x.in = &x.abInternal
	return &x.abInternal
}

// abLeafTiers is the number of leaf capacities, indexed by n>>1 for a leaf
// of n keys; abFreeCap caps each tier's free list per thread, and a leaf
// retired beyond it is left to the collector.
const (
	abLeafTiers = abLeafCap>>1 + 1
	abFreeCap   = 64
)

// abThread is one thread's share of the host leaf recycler, a Fraser-style
// EBR over the tree's host epoch. Quiesce announces the epoch, and while a
// thread's announcement is e the global epoch stays e or e+1. A leaf
// retired while the global epoch is e goes to bag e%3, and once the thread
// sees the epoch at e+2 no caller can still hold it (each has quiesced or
// parked since), so the bag moves to the free lists newNode pops from.
type abThread struct {
	ann   atomic.Uint64 // epoch announced at the last Quiesce; 0 while parked
	_     [7]uint64
	epoch uint64 // the global epoch at the owner's last Quiesce
	bags  [3][]*abNode
	free  [abLeafTiers][]*abNode
	_     [3]uint64 // to a whole number of cache lines
}

// testHookAnnounce, when set, runs in Quiesce between reading the global
// epoch and announcing it: the window a parked thread's read goes stale in.
var testHookAnnounce func()

// abSlot names the slot a node hangs from: children[idx] of in, or the tree's
// root slot when in is nil.
type abSlot struct {
	in  *abInternal
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
	guards []*smr.Guard
	root   atomic.Pointer[abNode]
	rootMu sync.Mutex // guards the root slot
	size   *sizeCtr
	epoch  atomic.Uint64 // the host epoch of the leaf recycler, from 1
	th     []abThread
}

// NewABTree builds an empty tree over the allocator and reclaimer.
func NewABTree(alloc simalloc.Allocator, rec smr.Reclaimer) *ABTree {
	threads := alloc.Threads()
	t := &ABTree{alloc: alloc, rec: rec, guards: guardsOf(rec, threads), size: newSizeCtr(threads), th: make([]abThread, threads)}
	t.epoch.Store(1)
	t.root.Store(t.newNode(0, 0))
	return t
}

// Quiesce implements Set. It announces the host epoch, moves the bags the
// epoch has made safe onto tid's free lists, and advances the epoch once
// every unparked thread has announced it.
func (t *ABTree) Quiesce(tid int) {
	me := &t.th[tid]
	// A parked thread does not hold the epoch back, so the epoch it read
	// may have moved on by the time it announces; announce until the
	// announcement is current.
	var e uint64
	for {
		e = t.epoch.Load()
		if testHookAnnounce != nil {
			testHookAnnounce()
		}
		me.ann.Store(e)
		if t.epoch.Load() == e {
			break
		}
	}
	if e != me.epoch {
		// The bags hold epochs me.epoch-1, me.epoch and me.epoch+1, at
		// indices (me.epoch+2)%3, ...; those at or before e-2 are safe.
		for i := uint64(0); i < min(e-me.epoch, 3); i++ {
			bag := &me.bags[(me.epoch+2+i)%3]
			for _, l := range *bag {
				if f := &me.free[cap(l.keys)>>1]; len(*f) < abFreeCap {
					*f = append(*f, l)
				}
			}
			clear(*bag)
			*bag = (*bag)[:0]
		}
		me.epoch = e
	}
	for i := range t.th {
		if a := t.th[i].ann.Load(); a != 0 && a != e {
			return
		}
	}
	t.epoch.CompareAndSwap(e, e+1)
}

// Park implements Set.
func (t *ABTree) Park(tid int) { t.th[tid].ann.Store(0) }

func (t *ABTree) Name() string { return "abtree" }

// Size returns the number of keys.
func (t *ABTree) Size() int64 { return t.size.total() }

// newNode allocates a leaf's simulated object and its host struct, with
// len(keys) = n for the caller to fill. The host struct is the smallest tier
// holding n keys: capacities 1, 3, ... 15 make head + keys exactly the Go
// size classes 48, 64, ... 160, and a full leaf takes the 176-byte class.
// It is tid's last recycled leaf of that tier when there is one.
func (t *ABTree) newNode(tid, n int) *abNode {
	var l *abNode
	if f := &t.th[tid].free[n>>1]; len(*f) > 0 {
		l, *f = (*f)[len(*f)-1], (*f)[:len(*f)-1]
		l.keys = l.keys[:n]
	} else {
		l = newLeafTier(n)
	}
	l.obj = t.alloc.Alloc(tid, ABTreeNodeBytes)
	t.rec.OnAlloc(tid, l.obj)
	return l
}

// newLeafTier allocates the host struct of a leaf of n keys.
func newLeafTier(n int) *abNode {
	var l *abNode
	switch n >> 1 {
	case 0:
		x := new(abLeaf[[1]int64])
		x.keys, l = x.arr[:n], &x.abNode
	case 1:
		x := new(abLeaf[[3]int64])
		x.keys, l = x.arr[:n], &x.abNode
	case 2:
		x := new(abLeaf[[5]int64])
		x.keys, l = x.arr[:n], &x.abNode
	case 3:
		x := new(abLeaf[[7]int64])
		x.keys, l = x.arr[:n], &x.abNode
	case 4:
		x := new(abLeaf[[9]int64])
		x.keys, l = x.arr[:n], &x.abNode
	case 5:
		x := new(abLeaf[[11]int64])
		x.keys, l = x.arr[:n], &x.abNode
	case 6:
		x := new(abLeaf[[13]int64])
		x.keys, l = x.arr[:n], &x.abNode
	case 7:
		x := new(abLeaf[[15]int64])
		x.keys, l = x.arr[:n], &x.abNode
	default:
		x := new(abLeaf[[abLeafCap]int64])
		x.keys, l = x.arr[:n], &x.abNode
	}
	return l
}

// newLeaf builds a leaf holding keys (ascending, at most abLeafCap).
func (t *ABTree) newLeaf(tid int, keys []int64) *abNode {
	n := t.newNode(tid, len(keys))
	copy(n.keys, keys)
	return n
}

// leafWith builds the copy of leaf old that also holds key, at the position
// i that leafFind(old, key) reported. old must not be full.
func (t *ABTree) leafWith(tid int, old *abNode, i int, key int64) *abNode {
	n := t.newNode(tid, len(old.keys)+1)
	insertKey(n.keys, old.keys, i, key)
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
	n := t.newNode(tid, len(old.keys)-1)
	copy(n.keys[:i], old.keys[:i])
	copy(n.keys[i:], old.keys[i+1:])
	return n
}

// newInternal allocates an internal node with room for the given number of
// children and none yet; the caller fills it with push before publishing it.
func (t *ABTree) newInternal(tid, children int) *abInternal {
	var in *abInternal
	switch {
	case children <= 16:
		x := new(abTier[[15]int64, [16]atomic.Pointer[abNode]])
		in = x.bind(x.routeArr[:], x.slotArr[:])
	case children <= 32:
		x := new(abTier[[31]int64, [32]atomic.Pointer[abNode]])
		in = x.bind(x.routeArr[:], x.slotArr[:])
	default:
		x := new(abTier[[abInternalCap - 1]int64, [abInternalCap]atomic.Pointer[abNode]])
		in = x.bind(x.routeArr[:], x.slotArr[:])
	}
	in.obj = t.alloc.Alloc(tid, ABTreeNodeBytes)
	t.rec.OnAlloc(tid, in.obj)
	return in
}

// push appends child c to an unpublished node, with the routing key k to c's
// left. The first child has nothing to its left and drops k.
func (in *abInternal) push(k int64, c *abNode) {
	n := len(in.children)
	if n > 0 {
		in.route = in.route[:n]
		in.route[n-1] = k
	}
	in.children = in.children[:n+1]
	in.children[n].Store(c)
}

// leftKey returns the routing key to the left of child i (0 for the first).
func (in *abInternal) leftKey(i int) int64 {
	if i == 0 {
		return 0
	}
	return in.route[i-1]
}

// abFill builds a replacement for an internal node in place: children go to
// lo until it holds cut of them, the rest to hi, and the routing key that
// falls between the two is kept in spine. hi is nil when everything fits lo.
type abFill struct {
	lo, hi *abInternal
	cut    int
	spine  int64
}

func (f *abFill) push(k int64, c *abNode) {
	if len(f.lo.children) < f.cut {
		f.lo.push(k, c)
		return
	}
	if len(f.hi.children) == 0 {
		f.spine = k
	}
	f.hi.push(k, c)
}

// pushFrom appends children [from, to) of src, each under the routing key it
// has in src. src's lock must be held, so the slots are stable.
func (f *abFill) pushFrom(src *abInternal, from, to int) {
	for i := from; i < to; i++ {
		f.push(src.leftKey(i), src.children[i].Load())
	}
}

// retire hands n's simulated object to the reclaimer and, for a leaf of an
// unparked tid, the host struct to the bag of the global epoch, read after
// the unlink.
func (t *ABTree) retire(tid int, n *abNode) {
	t.rec.Retire(tid, n.obj)
	if me := &t.th[tid]; n.in == nil && me.ann.Load() != 0 {
		bag := &me.bags[t.epoch.Load()%3]
		*bag = append(*bag, n)
	}
}

// childIndex returns the child slot covering key: the first i with
// key < route[i], else the last slot.
func childIndex(in *abInternal, key int64) int {
	lo, hi := 0, len(in.route)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key < in.route[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafFind returns the position key holds in leaf n, or would be inserted
// at — the first i with keys[i] >= key, else len(keys) — and whether it is
// there.
func leafFind(n *abNode, key int64) (i int, found bool) {
	for i, k := range n.keys {
		if k >= key {
			return i, k == key
		}
	}
	return len(n.keys), false
}

// descend walks from the root to the leaf covering key. It returns the
// leaf, the slot the leaf hangs from and the slot its parent hangs from: the
// two levels an update may lock. Each level is one visit: load the slot,
// publish the child through the guard, then re-read the slot and the
// parent's retired flag (the root slot has no parent) and restart from the
// root if either moved, since a node published after it was unlinked may
// already be freed (Michael's validation). Epoch-based reclaimers have a nil
// guard and skip both.
func (t *ABTree) descend(tid int, key int64) (leaf *abNode, at, above abSlot) {
	g := t.guards[tid]
retry:
	for {
		slot := &t.root
		at, above = abSlot{}, abSlot{}
		for depth := 0; ; depth++ {
			cur := slot.Load()
			if testHookLoaded != nil {
				testHookLoaded()
			}
			if g != nil {
				g.Protect(depth%smr.HazardSlots, cur.obj)
				if slot.Load() != cur || at.in != nil && at.in.lock.retired.Load() {
					continue retry
				}
			}
			if testHookVisit != nil {
				testHookVisit(cur.obj)
			}
			if cur.in == nil {
				return cur, at, above
			}
			above, at = at, abSlot{cur.in, childIndex(cur.in, key)}
			slot = &cur.in.children[at.idx]
		}
	}
}

// Contains reports whether key is present. The traversal is lock-free.
func (t *ABTree) Contains(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	leaf, _, _ := t.descend(tid, key)
	_, found := leafFind(leaf, key)
	return found
}

// lockSlot locks the owner of slot s (the parent's lock, or rootMu for the
// root slot) and validates that s still points at n. It returns the slot and
// the mutex it now holds, or false when validation fails and the caller
// must retry.
func (t *ABTree) lockSlot(s abSlot, n *abNode) (*atomic.Pointer[abNode], *sync.Mutex, bool) {
	if s.in == nil {
		t.rootMu.Lock()
		if t.root.Load() != n {
			t.rootMu.Unlock()
			return nil, nil, false
		}
		return &t.root, &t.rootMu, true
	}
	p := s.in
	p.lock.mu.Lock()
	slot := &p.children[s.idx]
	if p.lock.retired.Load() || slot.Load() != n {
		p.lock.mu.Unlock()
		return nil, nil, false
	}
	return slot, &p.lock.mu, true
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
	if len(leaf.keys) < abLeafCap {
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
	insertKey(merged[:], leaf.keys, i, key)
	const mid = len(merged) / 2
	sep := merged[mid]

	if at.in == nil {
		t.rootMu.Lock()
		if t.root.Load() != leaf {
			t.rootMu.Unlock()
			return false
		}
		left := t.newLeaf(tid, merged[:mid])
		right := t.newLeaf(tid, merged[mid:])
		root := t.newInternal(tid, 2)
		root.push(0, left)
		root.push(sep, right)
		t.root.Store(&root.abNode)
		t.rootMu.Unlock()
		t.retire(tid, leaf)
		return true
	}

	// Lock the parent's slot owner first (top-down), then the parent.
	p, idx := at.in, at.idx
	slot, mu, ok := t.lockSlot(above, &p.abNode)
	if !ok {
		return false
	}
	p.lock.mu.Lock()
	if p.lock.retired.Load() || p.children[idx].Load() != leaf {
		p.lock.mu.Unlock()
		mu.Unlock()
		return false
	}

	left := t.newLeaf(tid, merged[:mid])
	right := t.newLeaf(tid, merged[mid:])

	// Copy-on-write parent with the split child. Child slots are stable
	// while p's lock is held.
	m := len(p.children) + 1
	f := abFill{cut: m}
	if m > abInternalCap {
		// The parent would overflow: split it locally into two internal
		// nodes under a new two-child spine (relaxed rebalancing; the
		// spine collapses later if it goes single-child).
		f.cut = m / 2
	}
	f.lo = t.newInternal(tid, f.cut)
	if f.cut < m {
		f.hi = t.newInternal(tid, m-f.cut)
	}
	f.pushFrom(p, 0, idx)
	f.push(p.leftKey(idx), left)
	f.push(sep, right)
	f.pushFrom(p, idx+1, len(p.children))

	replacement := f.lo
	if f.hi != nil {
		replacement = t.newInternal(tid, 2)
		replacement.push(0, &f.lo.abNode)
		replacement.push(f.spine, &f.hi.abNode)
	}
	p.lock.retired.Store(true)
	slot.Store(&replacement.abNode)
	p.lock.mu.Unlock()
	mu.Unlock()
	t.retire(tid, leaf)
	t.retire(tid, &p.abNode)
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

	if len(leaf.keys) > 1 || at.in == nil {
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
	p, idx := at.in, at.idx
	slot, mu, ok := t.lockSlot(above, &p.abNode)
	if !ok {
		return false
	}
	p.lock.mu.Lock()
	if p.lock.retired.Load() || p.children[idx].Load() != leaf {
		p.lock.mu.Unlock()
		mu.Unlock()
		return false
	}

	var replacement *abNode
	if n := len(p.children); n == 2 {
		// Collapse: the sibling takes p's place.
		replacement = p.children[1-idx].Load()
	} else {
		// The routing key to the leaf's right goes with it, so the right
		// neighbour takes over its range; the last child has none, and the
		// key to its left goes.
		f := abFill{lo: t.newInternal(tid, n-1), cut: n - 1}
		f.pushFrom(p, 0, idx)
		if idx+1 < n {
			f.push(p.leftKey(idx), p.children[idx+1].Load())
			f.pushFrom(p, idx+2, n)
		}
		replacement = &f.lo.abNode
	}
	p.lock.retired.Store(true)
	slot.Store(replacement)
	p.lock.mu.Unlock()
	mu.Unlock()
	t.retire(tid, leaf)
	t.retire(tid, &p.abNode)
	return true
}
