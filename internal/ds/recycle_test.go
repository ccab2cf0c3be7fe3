package ds

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// The host-node recycler every tree embeds (recycler): a node comes back only
// after every thread that might hold it has passed a Quiesce or a Park,
// whatever the reclaimer under test does with its simulated object.

// TestABTreeRecycledLeafWaitsForReaders is the grace period's teeth. Reader
// A opens a batch and holds leaf L; writer B replaces L and then runs batch
// edges alone. L must not come back to B while A's batch is open, and must
// within three of B's edges once A quiesces. Tagging the bag with B's
// announced epoch instead of the global one, or freeing a bag one epoch
// after its own instead of two, hands L back while A still reads it.
func TestABTreeRecycledLeafWaitsForReaders(t *testing.T) {
	set, _, _ := newTestSet(t, "abtree", "debra", 2)
	tree := set.(*ABTree)
	const a, b = 0, 1
	// A root leaf of eight keys, built before either tid quiesces: those
	// retirements go to the collector.
	for k := int64(0); k < 8; k++ {
		set.Insert(a, 2*k)
	}
	tree.Quiesce(b) // B enters, as runWorker does
	tree.Quiesce(a) // A's batch opens
	leaf, _, _ := tree.descend(a, 4)
	if !set.Insert(b, 5) {
		t.Fatal("B's insert into A's leaf found the key present")
	}
	if tree.root.Load() == leaf {
		t.Fatal("B's insert did not replace the leaf A holds")
	}
	n := len(leaf.keys)
	for edge := 1; edge <= 10; edge++ {
		tree.Quiesce(b)
		if tree.newNode(b, n) == leaf {
			t.Fatalf("B's edge %d recycled the leaf A still holds (host epoch %d)", edge, tree.epoch.Load())
		}
	}
	tree.Quiesce(a) // A's batch closes
	for edge := 1; ; edge++ {
		tree.Quiesce(b)
		if tree.newNode(b, n) == leaf {
			break
		}
		if edge == 3 {
			t.Fatalf("the leaf did not come back within three of B's edges after A quiesced (host epoch %d)", tree.epoch.Load())
		}
	}
}

// TestABTreeRecycledLeafSurvivesStaleAnnouncement replays the window a parked
// thread's Quiesce has between reading the global epoch e and announcing
// it: nothing holds the epoch back for a parked thread, so the other thread
// advances it twice there. Writer B must not enter its batch announcing e
// while the epoch is e+2 — its bags would then be keyed two epochs ahead of
// its own, and its next Quiesce would free a leaf it retired after reader A
// took it.
func TestABTreeRecycledLeafSurvivesStaleAnnouncement(t *testing.T) {
	set, _, _ := newTestSet(t, "abtree", "debra", 2)
	tree := set.(*ABTree)
	const a, b = 0, 1
	for k := int64(0); k < 8; k++ {
		set.Insert(a, 2*k)
	}
	tree.Quiesce(a)
	e := tree.epoch.Load()
	testHookAnnounce = func() {
		testHookAnnounce = nil
		for tree.epoch.Load() < e+2 {
			tree.Quiesce(a) // B is parked: A alone advances the epoch
		}
	}
	defer func() { testHookAnnounce = nil }()
	tree.Quiesce(b) // B enters, and stalls after reading e
	if ann, g := tree.th[b].ann.Load(), tree.epoch.Load(); g-ann > 1 {
		t.Fatalf("B announced %d with the host epoch at %d", ann, g)
	}
	tree.Quiesce(a) // A's batch opens
	leaf, _, _ := tree.descend(a, 4)
	if !set.Insert(b, 5) || tree.root.Load() == leaf {
		t.Fatal("B's insert did not replace the leaf A holds")
	}
	n := len(leaf.keys)
	for edge := 1; edge <= 10; edge++ {
		tree.Quiesce(b)
		if tree.newNode(b, n) == leaf {
			t.Fatalf("B's edge %d recycled the leaf A still holds (host epoch %d)", edge, tree.epoch.Load())
		}
	}
	tree.Park(a) // A's batch closes and A leaves
	for edge := 1; ; edge++ {
		tree.Quiesce(b)
		if tree.newNode(b, n) == leaf {
			break
		}
		if edge == 3 {
			t.Fatalf("the leaf did not come back within three of B's edges after A parked (host epoch %d)", tree.epoch.Load())
		}
	}
}

// TestABTreeRecycledUpdateAllocsNothing is TestABTreeUpdatePathAllocs under
// the grace-period protocol: at the same six leaf fills, a steady-state
// insert+delete pair followed by a batch edge makes no host allocation at
// all, because both copied leaves come off the free lists. The simulated
// side is unchanged: one ABTreeNodeBytes object per update.
func TestABTreeRecycledUpdateAllocsNothing(t *testing.T) {
	const keyRange = 1 << 10
	set, alloc := buildSet(t, "abtree", "debra")
	tree := set.(*ABTree)
	tree.Quiesce(0)
	defer tree.Park(0)
	for k := int64(0); k < keyRange; k += 4 {
		set.Insert(0, k)
	}
	for i, fill := range []int{1, 2, 7, 8, 14, 15} {
		t.Run(fmt.Sprintf("fill=%d", fill), func(t *testing.T) {
			// As in TestABTreeUpdatePathAllocs: bring the 8-key leaf at
			// [base, base+32) to fill keys, none of them base+2.
			base := 32 * int64(i+1)
			for k := base + 4*int64(fill); k < base+32; k += 4 {
				set.Delete(0, k)
			}
			for k := base + 1; k < base+4*int64(fill-8); k += 4 {
				set.Insert(0, k)
			}
			key := base + 2
			if leaf, _, _ := tree.descend(0, key); len(leaf.keys) != fill {
				t.Fatalf("the leaf covering %d holds %v, want %d keys", key, leaf.keys, fill)
			}
			pair := func() {
				if !set.Insert(0, key) || !set.Delete(0, key) {
					t.Fatal("insert+delete pair of an absent key did not both succeed")
				}
				tree.Quiesce(0)
			}
			for i := 0; i < 512; i++ {
				pair()
			}
			before := alloc.Stats().Allocs
			if avg := testing.AllocsPerRun(500, pair); avg != 0 {
				t.Fatalf("insert+delete pair makes %.2f host allocations, want 0", avg)
			}
			// TotalAlloc is process-wide; the quietest round is the
			// measurement (see TestABTreeUpdatePathAllocs).
			const rounds, pairs = 5, 200
			perRound := uint64(math.MaxUint64)
			for r := 0; r < rounds; r++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < pairs; i++ {
					pair()
				}
				runtime.ReadMemStats(&m1)
				perRound = min(perRound, m1.TotalAlloc-m0.TotalAlloc)
			}
			if perRound != 0 {
				t.Fatalf("%d insert+delete pairs on a %d-key leaf allocate %d host bytes, want 0", pairs, fill, perRound)
			}
			const updates = 2 * (501 + rounds*pairs)
			if got := alloc.Stats().Allocs - before; got != updates {
				t.Fatalf("simulated allocations = %d, want one per update (%d)", got, updates)
			}
		})
	}
	checkABTree(t, set)
}

// TestABTreeRecycledFreeListsStayCapped checks every tier's free list against
// its own cap (recCap: recFreeCap for a leaf tier, abInternalFreeCap for an
// internal one) after every batch edge of an online run: inserts until the
// tree holds half the key range, then deletes of every key. Growth allocates
// at least as many leaves of each tier as it retires, so its lists stay
// short; a delete retires a leaf at its own tier and builds the copy at the
// same or the next lower one, so the drain-down piles leaves onto the middle
// tiers, and the parents it copies onto the internal ones, until the caps
// turn them away.
func TestABTreeRecycledFreeListsStayCapped(t *testing.T) {
	const keyRange = 1 << 13
	set, _ := buildSet(t, "abtree", "debra")
	tree := set.(*ABTree)
	me := &tree.th[0]
	tree.Quiesce(0)
	defer tree.Park(0)
	var peak [recTiers]int
	edge := func(phase string, ops int) {
		if ops%64 != 0 {
			return
		}
		tree.Quiesce(0)
		for k, f := range me.free {
			if len(f) > recCap(k) {
				t.Fatalf("%s, op %d: tier %d's free list holds %d nodes, over its cap of %d", phase, ops, k, len(f), recCap(k))
			}
			peak[k] = max(peak[k], len(f))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 1; set.Size() < keyRange/2; i++ {
		set.Insert(0, rng.Int63n(keyRange))
		edge("insert-only growth", i)
	}
	for k := int64(0); k < keyRange; k++ {
		set.Delete(0, k)
		edge("drain-down", int(k)+1)
	}
	if set.Size() != 0 {
		t.Fatalf("Size = %d after deleting every key", set.Size())
	}
	if p := slices.Max(peak[:abLeafTiers]); p != recFreeCap {
		t.Fatalf("the longest leaf free list held %d leaves; the run is meant to reach the cap of %d", p, recFreeCap)
	}
	if p := slices.Max(peak[abLeafTiers:]); p != abInternalFreeCap {
		t.Fatalf("the longest internal free list held %d nodes; the run is meant to reach the cap of %d", p, abInternalFreeCap)
	}
	checkABTree(t, set)
}

// freeListHas reports whether n is on one of tid's free lists.
func freeListHas[N interface {
	hostNode
	comparable
}](r *recycler[N], tid int, n N) bool {
	return slices.ContainsFunc(r.th[tid].free[:], func(f []N) bool { return slices.Contains(f, n) })
}

// TestRecycledNodeWaitsForReaders is TestABTreeRecycledLeafWaitsForReaders for
// the other node kinds the recycler serves: an ABtree internal node, an
// OCCtree node and a DGT node. Reader A opens a batch and holds the node;
// writer B unlinks it and then runs batch edges alone. The node must not
// reach B's free lists while A's batch is open, and must within three of B's
// edges once A quiesces.
func TestRecycledNodeWaitsForReaders(t *testing.T) {
	const a, b = 0, 1
	for _, row := range []struct {
		name, ds string
		// prepare fills the tree before either tid quiesces (those
		// unlinks go to the collector); hold runs in A's open batch and
		// returns what A holds; unlink is B's operation on it, and back
		// reports whether the held node is on B's free lists.
		prepare func(set Set)
		hold    func(set Set) any
		unlink  func(t *testing.T, set Set, held any)
		back    func(set Set, held any) bool
	}{
		{
			name: "abtree internal", ds: "abtree",
			// A root leaf of 17 keys splits under an internal root.
			prepare: func(set Set) {
				for k := int64(0); k <= 32; k += 2 {
					set.Insert(a, k)
				}
			},
			hold: func(set Set) any { return set.(*ABTree).root.Load() },
			// Eight inserts into the 9-key right leaf split it, which
			// replaces the root.
			unlink: func(t *testing.T, set Set, held any) {
				tree := set.(*ABTree)
				if held.(*abNode).in == nil {
					t.Fatal("the root A holds is a leaf")
				}
				for k := int64(17); k < 32; k += 2 {
					set.Insert(b, k)
				}
				if tree.root.Load() == held {
					t.Fatal("B's inserts did not replace the root A holds")
				}
			},
			back: func(set Set, held any) bool {
				return freeListHas(&set.(*ABTree).recycler, b, held.(*abNode))
			},
		},
		{
			name: "occtree", ds: "occtree",
			prepare: func(set Set) {
				for _, k := range []int64{10, 5, 15} {
					set.Insert(a, k)
				}
			},
			hold: func(set Set) any {
				_, _, n := set.(*OCCTree).seek(a, 5)
				return n
			},
			unlink: func(t *testing.T, set Set, held any) {
				if !set.Delete(b, 5) || !held.(*occNode).retired.Load() {
					t.Fatal("B's delete did not unlink the node A holds")
				}
			},
			back: func(set Set, held any) bool {
				return freeListHas(&set.(*OCCTree).recycler, b, held.(*occNode))
			},
		},
		{
			name: "dgtree", ds: "dgtree",
			prepare: func(set Set) {
				for _, k := range []int64{10, 20} {
					set.Insert(a, k)
				}
			},
			// The routing node above key 10's leaf.
			hold: func(set Set) any {
				_, _, p, _, _ := set.(*DGTree).seek(a, 10)
				return p
			},
			unlink: func(t *testing.T, set Set, held any) {
				if !set.Delete(b, 10) || !held.(*dgNode).retired.Load() {
					t.Fatal("B's delete did not unlink the node A holds")
				}
			},
			back: func(set Set, held any) bool {
				return freeListHas(&set.(*DGTree).recycler, b, held.(*dgNode))
			},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			set, _, _ := newTestSet(t, row.ds, "debra", 2)
			row.prepare(set)
			set.Quiesce(b) // B enters, as runWorker does
			set.Quiesce(a) // A's batch opens
			held := row.hold(set)
			row.unlink(t, set, held)
			for edge := 1; edge <= 10; edge++ {
				set.Quiesce(b)
				if row.back(set, held) {
					t.Fatalf("B's edge %d recycled the node A still holds", edge)
				}
			}
			set.Quiesce(a) // A's batch closes
			for edge := 1; !row.back(set, held); edge++ {
				if edge > 3 {
					t.Fatal("the node did not come back within three of B's edges after A quiesced")
				}
				set.Quiesce(b)
			}
		})
	}
}

// TestRecycledFreeListsHoldNoChildren walks every tid's free lists after an
// online run of each tree and finds every child slot nil. A node that kept
// its children there would hold the retired subtrees below it alive for as
// long as it waits.
func TestRecycledFreeListsHoldNoChildren(t *testing.T) {
	const threads = 4
	for _, dsName := range Names() {
		t.Run(dsName, func(t *testing.T) {
			set, _, _ := newTestSet(t, dsName, "debra", threads)
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					set.Quiesce(tid)
					defer set.Park(tid)
					rng := rand.New(rand.NewSource(int64(tid)))
					for i := 1; i <= 8000; i++ {
						if key := rng.Int63n(1 << 10); rng.Intn(2) == 0 {
							set.Insert(tid, key)
						} else {
							set.Delete(tid, key)
						}
						if i%64 == 0 {
							set.Quiesce(tid)
						}
					}
				}(tid)
			}
			wg.Wait()
			parents := 0 // free nodes that have child slots
			for tid := 0; tid < threads; tid++ {
				var stale []string
				switch tree := set.(type) {
				case *ABTree:
					for _, n := range slices.Concat(tree.th[tid].free[:]...) {
						if n.in == nil {
							continue
						}
						parents++
						slots := n.in.children[:cap(n.in.children)]
						for i := range slots {
							if slots[i].Load() != nil {
								stale = append(stale, fmt.Sprintf("internal slot %d", i))
							}
						}
					}
				case *OCCTree:
					for _, n := range slices.Concat(tree.th[tid].free[:]...) {
						parents++
						if n.left.Load() != nil || n.right.Load() != nil {
							stale = append(stale, fmt.Sprintf("node %d", n.key))
						}
					}
				case *DGTree:
					for _, n := range slices.Concat(tree.th[tid].free[:]...) {
						parents++
						if n.left.Load() != nil || n.right.Load() != nil {
							stale = append(stale, fmt.Sprintf("node %d", n.key))
						}
					}
				}
				if len(stale) > 0 {
					t.Errorf("tid %d's free lists hold %d child pointers (%s, ...)", tid, len(stale), stale[0])
				}
			}
			if parents == 0 {
				t.Fatal("no free node with child slots to check; the run is meant to leave some")
			}
			checkSet(t, set)
		})
	}
}

// TestABTreeRecycledSplitAllocsNothing is the parent-with-room row of
// TestABTreeSplitPathAllocs under the grace-period protocol: once warm, a
// leaf split makes no host allocation, because both halves and the parent's
// copy come off the free lists. The simulated side is unchanged: three
// ABTreeNodeBytes objects per split.
func TestABTreeRecycledSplitAllocsNothing(t *testing.T) {
	set, alloc := buildSet(t, "abtree", "debra")
	tree := set.(*ABTree)
	tree.Quiesce(0)
	defer tree.Park(0)
	// 8-key leaves at [32i, 32i+32) under a root with room for 32 children.
	for k := int64(0); k < 32*16; k += 4 {
		set.Insert(0, k)
	}
	children := abFanout(tree.root.Load())
	// edges turns the host epoch until what was retired before is free.
	edges := func() {
		for i := 0; i < 3; i++ {
			tree.Quiesce(0)
		}
	}
	next := int64(0)
	split := func() {
		if !set.Insert(0, 32*next+2) {
			t.Fatal("the splitting insert found its key present")
		}
		next++
		edges()
	}
	const warm, rounds = 2, 3
	for r := 0; r < warm+rounds; r++ {
		// Fill two leaves to capacity, so that base+2 splits each, as in
		// TestABTreeSplitPathAllocs; the 8- and 9-key leaves the fill
		// retires are the halves' tier.
		for base := 32 * next; base < 32*(next+2); base += 32 {
			for k := base + 1; k < base+32; k += 4 {
				if !set.Insert(0, k) {
					t.Fatalf("Insert(%d) found the key present", k)
				}
			}
		}
		edges()
		before := alloc.Stats().Allocs
		got := testing.AllocsPerRun(1, split)
		if r >= warm && got != 0 {
			t.Errorf("round %d: a leaf split makes %.0f host allocations, want 0", r-warm, got)
		}
		if n := alloc.Stats().Allocs - before; n != 6 {
			t.Errorf("round %d: %d simulated allocations over two splits, want 6", r, n)
		}
	}
	if n := abFanout(tree.root.Load()); n != children+2*(warm+rounds) || n > 32 {
		t.Fatalf("the root went from %d to %d children over %d splits", children, n, 2*(warm+rounds))
	}
	checkABTree(t, set)
}

// TestRecycledInsertAllocsNothing pins the recycled insert path of the two
// other trees: in steady state, inserting a new key as a leaf and deleting it
// again, then a batch edge, makes no host allocation, because the inserted
// nodes come off the free lists. The simulated side is unchanged: one
// OCCtree node, or a DGT leaf and its routing node, per insert.
func TestRecycledInsertAllocsNothing(t *testing.T) {
	for _, row := range []struct {
		ds    string
		nodes int64 // simulated objects per insert
	}{{"occtree", 1}, {"dgtree", 2}} {
		t.Run(row.ds, func(t *testing.T) {
			const keyRange = 1 << 10
			set, alloc := buildSet(t, row.ds, "debra")
			set.Quiesce(0)
			defer set.Park(0)
			rng := rand.New(rand.NewSource(1))
			for _, k := range rng.Perm(keyRange / 2) {
				set.Insert(0, 2*int64(k))
			}
			key := int64(1)
			pair := func() {
				if !set.Insert(0, key) || !set.Delete(0, key) {
					t.Fatal("insert+delete pair of an absent key did not both succeed")
				}
				set.Quiesce(0)
				key = (key + 2*37) % keyRange
			}
			for i := 0; i < 512; i++ {
				pair()
			}
			before := alloc.Stats().Allocs
			if avg := testing.AllocsPerRun(500, pair); avg != 0 {
				t.Fatalf("insert+delete pair makes %.2f host allocations, want 0", avg)
			}
			if got := alloc.Stats().Allocs - before; got != 501*row.nodes {
				t.Fatalf("simulated allocations = %d, want %d per insert (%d)", got, row.nodes, 501*row.nodes)
			}
			checkSet(t, set)
		})
	}
}
