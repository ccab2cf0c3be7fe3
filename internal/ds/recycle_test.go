package ds

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The ABtree's host leaf recycler (abThread): a leaf comes back only after
// every thread that might hold it has passed a Quiesce or a Park, whatever
// the reclaimer under test does with its simulated object.

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
// abFreeCap after every batch edge of an online run: inserts until the tree
// holds half the key range, then deletes of every key. Growth allocates at
// least as many leaves of each tier as it retires, so its lists stay short;
// an emptied leaf is retired with nothing built in its place, so the
// drain-down piles one-key leaves onto tier 0 until the cap turns them away.
func TestABTreeRecycledFreeListsStayCapped(t *testing.T) {
	const keyRange = 1 << 13
	set, _ := buildSet(t, "abtree", "debra")
	tree := set.(*ABTree)
	me := &tree.th[0]
	tree.Quiesce(0)
	defer tree.Park(0)
	peak := 0
	edge := func(phase string, ops int) {
		if ops%64 != 0 {
			return
		}
		tree.Quiesce(0)
		for tier, f := range me.free {
			if len(f) > abFreeCap {
				t.Fatalf("%s, op %d: tier %d's free list holds %d leaves, over the cap of %d", phase, ops, tier, len(f), abFreeCap)
			}
			peak = max(peak, len(f))
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
	if peak != abFreeCap {
		t.Fatalf("the longest free list held %d leaves; the run is meant to reach the cap of %d", peak, abFreeCap)
	}
	checkABTree(t, set)
}
