package ds

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/simalloc"
	"repro/internal/smr"
	"repro/internal/timeline"
)

// Steady-state zero-allocation pins. The guard dispatch path exists so the
// hottest loop in the harness — traverse, publish protection per visited
// node, finish the op — does no avoidable host work; a Go heap allocation on
// that path (interface boxing, an escaping path array, a closure capture)
// would cost far more than the dispatch it saves. The read path is the pure
// form of that loop: a full BeginOp/Protect.../EndOp cycle with no node
// churn, so it must allocate exactly nothing for every reclaimer family on
// every tree.
//
// One reclaimer per family (the families share their hot-path structure):
//
//	epoch  → debra   (announcement array, limbo bags)
//	hazard → hp      (pointer-publishing slot window)
//	era    → he      (era-publishing slot window; wfe shares the code)
//	token  → token_af (ring token + amortized freer pump in EndOp)
func zeroAllocFamilies() []string { return []string{"debra", "hp", "he", "token_af"} }

func buildSet(t testing.TB, dsName, recName string) (Set, simalloc.Allocator) {
	t.Helper()
	acfg := simalloc.DefaultConfig(1)
	acfg.Cost = simalloc.Uniform()
	alloc := simalloc.NewJEMalloc(acfg)
	rec, err := smr.New(recName, smr.DefaultConfig(alloc, 1))
	if err != nil {
		t.Fatal(err)
	}
	set, err := New(dsName, alloc, rec)
	if err != nil {
		t.Fatal(err)
	}
	return set, alloc
}

func TestSteadyStateReadPathZeroAllocs(t *testing.T) {
	const keyRange = 1 << 10
	for _, dsName := range Names() {
		for _, recName := range zeroAllocFamilies() {
			t.Run(dsName+"/"+recName, func(t *testing.T) {
				set, _ := buildSet(t, dsName, recName)
				assertReadPathZeroAllocs(t, set, keyRange)
			})
		}
	}
}

// TestRecordedReadPathZeroAllocs is the recording-pipeline rider on the pin
// above: with a timeline recorder wired through the reclaimer and the
// allocator's free observer installed, the read path must still allocate
// exactly nothing. The staged pipeline writes into fixed rings and the
// committed buffers only grow inside Merge, which a pure read cycle never
// feeds, so recording on is indistinguishable from recording off here.
func TestRecordedReadPathZeroAllocs(t *testing.T) {
	const keyRange = 1 << 10
	for _, dsName := range Names() {
		for _, recName := range zeroAllocFamilies() {
			t.Run(dsName+"/"+recName, func(t *testing.T) {
				acfg := simalloc.DefaultConfig(1)
				acfg.Cost = simalloc.Uniform()
				alloc := simalloc.NewJEMalloc(acfg)
				tl := timeline.NewRecorder(1, 4096)
				alloc.SetFreeObserver(tl.ObserveFree)
				scfg := smr.DefaultConfig(alloc, 1)
				scfg.Recorder = tl
				rec, err := smr.New(recName, scfg)
				if err != nil {
					t.Fatal(err)
				}
				set, err := New(dsName, alloc, rec)
				if err != nil {
					t.Fatal(err)
				}
				assertReadPathZeroAllocs(t, set, keyRange)
			})
		}
	}
}

func assertReadPathZeroAllocs(t *testing.T, set Set, keyRange int64) {
	t.Helper()
	// Prefill to a realistic depth so traversals visit several
	// levels (and therefore publish several protections).
	for k := int64(0); k < keyRange; k += 2 {
		set.Insert(0, k)
	}
	// Warm up: let lazily-grown scratch (hazard scan maps, flush
	// groups) reach steady state before counting.
	key := int64(1)
	for i := 0; i < 512; i++ {
		set.Contains(0, key)
		key = (key*31 + 17) % keyRange
	}
	avg := testing.AllocsPerRun(200, func() {
		set.Contains(0, key)
		key = (key*31 + 17) % keyRange
	})
	if avg != 0 {
		t.Fatalf("steady-state read path allocates %.2f objects/op", avg)
	}
}

// TestABTreeUpdatePathAllocs pins the update path's host cost on the paper's
// stack (abtree × debra): a successful non-splitting insert or delete makes
// exactly one Go allocation — the copied leaf, keys inline, in the smallest
// tier that holds them — so inserting a key into a leaf of k keys and taking
// it out again costs the size class of a (k+1)-key leaf plus that of a k-key
// one, whatever side of a tier boundary k is on. Anything more (a separate
// key slice, a closure that escapes, a path buffer, a leaf built at full
// width) is host work charged to the run that the experiment is not about.
// The simulated side does not follow the tiers: one ABTreeNodeBytes object
// per update. With one thread DEBRA's epoch turns every few operations, so
// retired objects come back through the tcache and the simulated allocator
// maps no fresh run (a slab allocation) after the warm-up.
func TestABTreeUpdatePathAllocs(t *testing.T) {
	const keyRange = 1 << 10
	set, alloc := buildSet(t, "abtree", "debra")
	// Ascending multiples of 4 leave an 8-key leaf at every [32i, 32i+32).
	for k := int64(0); k < keyRange; k += 4 {
		set.Insert(0, k)
	}
	leafBytes := func(keys int) uint64 {
		return uint64(goSizeClass(unsafe.Sizeof(abNode{}) + 8*uintptr(abLeafTier(keys))))
	}
	for i, fill := range []int{1, 2, 7, 8, 14, 15} {
		t.Run(fmt.Sprintf("fill=%d", fill), func(t *testing.T) {
			// Bring this row's own leaf to fill keys, none of them base+2.
			base := 32 * int64(i+1)
			for k := base + 4*int64(fill); k < base+32; k += 4 {
				set.Delete(0, k)
			}
			for k := base + 1; k < base+4*int64(fill-8); k += 4 {
				set.Insert(0, k)
			}
			key := base + 2
			leaf, _, _ := set.(*ABTree).descend(0, key)
			if len(leaf.keys) != fill {
				t.Fatalf("the leaf covering %d holds %v, want %d keys", key, leaf.keys, fill)
			}
			pair := func() {
				if !set.Insert(0, key) || !set.Delete(0, key) {
					t.Fatal("insert+delete pair of an absent key did not both succeed")
				}
			}
			for i := 0; i < 512; i++ {
				pair()
			}
			before := alloc.Stats()

			if avg := testing.AllocsPerRun(500, pair); avg != 2 {
				t.Fatalf("insert+delete pair makes %.0f host allocations, want 2 (one copied leaf each)", avg)
			}

			// TotalAlloc is process-wide, so the runtime's own rare
			// allocations can land in a round; they only ever add, which
			// makes the quietest round the measurement.
			const rounds, pairs = 5, 200
			perPair := uint64(math.MaxUint64)
			for r := 0; r < rounds; r++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < pairs; i++ {
					pair()
				}
				runtime.ReadMemStats(&m1)
				perPair = min(perPair, (m1.TotalAlloc-m0.TotalAlloc)/pairs)
			}
			if want := leafBytes(fill+1) + leafBytes(fill); perPair != want {
				t.Fatalf("insert+delete pair on a %d-key leaf allocates %d host bytes, want %d + %d",
					fill, perPair, leafBytes(fill+1), leafBytes(fill))
			}

			after := alloc.Stats()
			if after.FreshPages != before.FreshPages {
				t.Fatalf("simulated objects did not recycle: %d fresh page runs during the measurement", after.FreshPages-before.FreshPages)
			}
			const updates = 2 * (501 + rounds*pairs)
			if got := after.Allocs - before.Allocs; got != updates {
				t.Fatalf("simulated allocations = %d, want one per update (%d)", got, updates)
			}
			if leaf, _, _ = set.(*ABTree).descend(0, key); leaf.obj.Size != ABTreeNodeBytes {
				t.Fatalf("a %d-key leaf's simulated object is %d bytes, want %d", len(leaf.keys), leaf.obj.Size, ABTreeNodeBytes)
			}
		})
	}
	checkABTree(t, set)
}

// TestABTreeSplitPathAllocs pins the host cost of the two paths that rebuild
// an internal node. A leaf split under a parent with room makes three Go
// allocations (two leaves and the parent's copy); one under a full parent
// makes five (two leaves, the parent's two halves and the spine above them).
// The new nodes are filled in place, so a temporary key or child slice on
// either path shows here.
func TestABTreeSplitPathAllocs(t *testing.T) {
	// fillLeaf brings the 8-key leaf that ascending inserts of multiples of
	// 4 left at [base, base+32) to capacity, so that base+2 splits it.
	fillLeaf := func(set Set, base int64) {
		for k := base + 1; k < base+32; k += 4 {
			if !set.Insert(0, k) {
				t.Fatalf("Insert(%d) found the key present", k)
			}
		}
	}
	// measure runs two splits, testing.AllocsPerRun's warm-up call and the
	// one it counts, and checks that the simulated allocators of the trees
	// they ran on saw the same nodes.
	measure := func(what string, want int, split func(), allocs ...simalloc.Allocator) {
		t.Helper()
		simulated := func() (n int64) {
			for _, a := range allocs {
				n += a.Stats().Allocs
			}
			return n
		}
		before := simulated()
		if got := testing.AllocsPerRun(1, split); got != float64(want) {
			t.Errorf("%s makes %.0f host allocations, want %d", what, got, want)
		}
		if got := simulated() - before; got != int64(2*want) {
			t.Errorf("%s: %d simulated allocations over two splits, want %d", what, got, 2*want)
		}
	}

	t.Run("parent with room", func(t *testing.T) {
		set, alloc := buildSet(t, "abtree", "debra")
		for k := int64(0); k < 32*16; k += 4 {
			set.Insert(0, k)
		}
		const rounds = 3
		for i := int64(0); i < 2*rounds; i++ {
			fillLeaf(set, 32*i)
		}
		next := int64(0)
		for r := 0; r < rounds; r++ {
			measure("a leaf split", 3, func() {
				if !set.Insert(0, 32*next+2) {
					t.Fatal("the splitting insert found its key present")
				}
				next++
			}, alloc)
		}
		checkABTree(t, set)
	})

	t.Run("full parent", func(t *testing.T) {
		// Two trees whose root is an internal node at capacity (a leaf
		// never holds abInternalCap keys).
		var sets [2]Set
		var allocs [2]simalloc.Allocator
		for i := range sets {
			sets[i], allocs[i] = buildSet(t, "abtree", "debra")
			tree := sets[i].(*ABTree)
			for k := int64(0); abFanout(tree.root.Load()) < abInternalCap; k += 4 {
				sets[i].Insert(0, k)
			}
			fillLeaf(sets[i], 0)
		}
		next := 0
		measure("a leaf split under a full parent", 5, func() {
			if !sets[next].Insert(0, 2) {
				t.Fatal("the splitting insert found its key present")
			}
			next++
		}, allocs[:]...)
		for _, set := range sets {
			root := set.(*ABTree).root.Load()
			lo, hi := root.in.children[0].Load(), root.in.children[1].Load()
			if n, l, h := abFanout(root), abFanout(lo), abFanout(hi); n != 2 || l != (abInternalCap+1)/2 || h != abInternalCap+1-l {
				t.Errorf("after the overflow the root has %d children holding %d and %d, want 2 holding %d and %d",
					n, l, h, (abInternalCap+1)/2, abInternalCap+1-(abInternalCap+1)/2)
			}
			checkABTree(t, set)
		}
	})
}
