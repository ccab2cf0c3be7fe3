// Package ds provides the concurrent set data structures the paper
// benchmarks: Brown's ABtree (fat 240-byte nodes, the allocation-heavy
// workload), an optimistic-concurrency binary search tree standing in for
// Bronson et al.'s OCC AVL tree (small 64-byte nodes, allocation-light), and
// the David-Guerraoui-Trigonakis external BST with ticket locks (appendix D).
//
// All three allocate their nodes through a simulated allocator
// (package simalloc) and retire unlinked nodes through a reclaimer
// (package smr); memory safety comes from Go's garbage collector and, for
// the ABtree's recycled leaves, the callers' own grace period (Set.Quiesce),
// so the reclaimer's job here is to reproduce the retire→grace-period→free
// lifecycle whose cost the paper studies.
package ds

import (
	"fmt"
	"sync/atomic"

	"repro/internal/simalloc"
	"repro/internal/smr"
)

// Set is an ordered set of int64 keys. A tid identifies the calling
// simulated thread; each tid must be used by one goroutine at a time.
type Set interface {
	// Name identifies the structure ("abtree", "occtree", "dgtree").
	Name() string
	// Insert adds key, reporting whether it was absent.
	Insert(tid int, key int64) bool
	// Delete removes key, reporting whether it was present.
	Delete(tid int, key int64) bool
	// Contains reports whether key is present.
	Contains(tid int, key int64) bool
	// Size returns the exact number of keys. It sums per-thread deltas and
	// is accurate whenever no operation is in flight.
	Size() int64
	// Quiesce says tid holds no node from any earlier call; Park says the
	// same and that tid makes no call until its next Quiesce. They are the
	// host's grace period, independent of the reclaimer: a set may reuse a
	// node it unlinked once every unparked tid has quiesced twice since (the
	// ABtree's leaves), or ignore both (the other trees). A tid that never
	// called Quiesce counts as parked, so a caller that skips the protocol
	// keeps the collector's path; once any tid quiesces, every tid that makes
	// calls must make them between a Quiesce and its Park.
	Quiesce(tid int)
	Park(tid int)
}

// NodeSizes used by the paper's data structures.
const (
	// ABTreeNodeBytes is the paper's fat ABtree node (240 bytes).
	ABTreeNodeBytes = 240
	// OCCTreeNodeBytes is the paper's small OCCtree node (64 bytes).
	OCCTreeNodeBytes = 64
	// DGTreeNodeBytes is the DGT external BST node size.
	DGTreeNodeBytes = 64
)

// New constructs a set by name over the given allocator and reclaimer.
func New(name string, alloc simalloc.Allocator, rec smr.Reclaimer) (Set, error) {
	switch name {
	case "abtree":
		return NewABTree(alloc, rec), nil
	case "occtree":
		return NewOCCTree(alloc, rec), nil
	case "dgtree":
		return NewDGTree(alloc, rec), nil
	default:
		return nil, fmt.Errorf("ds: unknown data structure %q", name)
	}
}

// Names lists the available data structures.
func Names() []string { return []string{"abtree", "occtree", "dgtree"} }

// guardsOf resolves rec's per-thread protection handles once, at tree
// construction, so traversal loops pay no interface dispatch per visited
// node. A non-nil guards[tid] publishes through the concrete smr.Guard
// (HP/HE/IBR/NBR/WFE); a nil one means the reclaimer needs no per-node
// protection (epoch-based schemes) and the traversal branches away entirely.
// There is no other protection route: the trees never call
// Reclaimer.Protect (TestTreesProtectThroughGuardsOnly).
func guardsOf(rec smr.Reclaimer, threads int) []*smr.Guard {
	guards := make([]*smr.Guard, threads)
	for tid := range guards {
		guards[tid] = rec.Guard(tid)
	}
	return guards
}

// testHookLoaded and testHookVisit, when set, run at each tree's one visit
// site, for every reclaimer: testHookLoaded between loading a child slot and
// publishing what it read (the window an unlink, retire and free can fall
// into), testHookVisit once the visit is validated, with the visited node's
// object (nil for a sentinel).
var (
	testHookLoaded func()
	testHookVisit  func(*simalloc.Object)
)

// sizeCtr tracks the set's cardinality with per-thread padded deltas so hot
// paths never share a counter cache line.
type sizeCtr struct {
	deltas []sizeDelta
}

// sizeDelta is one thread's share of the count, alone on its cache line.
type sizeDelta struct {
	v int64
	_ [7]int64
}

func newSizeCtr(threads int) *sizeCtr {
	return &sizeCtr{deltas: make([]sizeDelta, threads)}
}

func (c *sizeCtr) add(tid int, d int64) {
	atomic.AddInt64(&c.deltas[tid].v, d)
}

func (c *sizeCtr) total() int64 {
	var n int64
	for i := range c.deltas {
		n += atomic.LoadInt64(&c.deltas[i].v)
	}
	return n
}
