package ds

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simalloc"
)

// Sequential scripts: a list of set operations run against a map model, the
// form TestSequentialAgainstModel, the tier-boundary walk and the fuzz target
// share. A script is one byte per operation so the fuzzer can mutate it: the
// top two bits pick the operation, the low six the key.

const (
	opInsert = iota
	opDelete
	opContains // and 3

	scriptKeyRange = 64
)

func scriptOp(kind int, key int64) byte { return byte(kind<<6) | byte(key%scriptKeyRange) }

// runScript applies script to set and to a model, failing on the first
// return value that differs, calls after (if set) once the set has taken
// each operation, and ends with a lookup of every key and the set's
// invariant walk.
func runScript(t testing.TB, set Set, script []byte, after func()) {
	t.Helper()
	var model [scriptKeyRange]bool
	for i, b := range script {
		kind, key := int(b>>6), int64(b%scriptKeyRange)
		var got, want bool
		switch kind {
		case opInsert:
			got, want = set.Insert(0, key), !model[key]
			model[key] = true
		case opDelete:
			got, want = set.Delete(0, key), model[key]
			model[key] = false
		default:
			got, want = set.Contains(0, key), model[key]
		}
		if got != want {
			t.Fatalf("op %d: %s(%d) = %v, want %v", i, [...]string{"Insert", "Delete", "Contains", "Contains"}[kind], key, got, want)
		}
		if after != nil {
			after()
		}
	}
	size := int64(0)
	for k, want := range model {
		if set.Contains(0, int64(k)) != want {
			t.Fatalf("final: Contains(%d) = %v, want %v", k, !want, want)
		}
		if want {
			size++
		}
	}
	if got := set.Size(); got != size {
		t.Fatalf("Size = %d, want %d", got, size)
	}
	checkSet(t, set)
}

// randomScript is n seeded operations, a third each of insert, delete and
// contains, over the whole key range: TestSequentialAgainstModel's script.
func randomScript(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	script := make([]byte, n)
	for i := range script {
		script[i] = scriptOp(rng.Intn(3), rng.Int63n(scriptKeyRange))
	}
	return script
}

// tierBoundaryScript drives single leaves across every tier boundary in both
// directions and through every structural path: a root leaf 0 → 16 keys and
// its split, a leaf under a parent 9 → 16 and its split (the parent copied
// with a third child), a leaf 9 → 16 → 1 and emptied under a parent of three
// (removeEmptyLeaf rebuilds the parent), a leaf 8 → 1 and emptied under a
// parent of two (the sibling takes the root slot), and the root leaf 8 → 0.
func tierBoundaryScript() []byte {
	var script []byte
	insert := func(from, to int64) {
		for k := from; k <= to; k++ {
			script = append(script, scriptOp(opInsert, k), scriptOp(opContains, k))
		}
	}
	remove := func(from, to int64) {
		for k := from; k >= to; k-- {
			script = append(script, scriptOp(opDelete, k), scriptOp(opContains, k))
		}
	}
	insert(0, 15)  // root leaf [0..15]
	insert(16, 16) // split: [0..7] [8..16]
	insert(17, 23) // [8..23], full
	insert(24, 24) // split: [0..7] [8..15] [16..24]
	insert(25, 31) // [16..31], full
	remove(31, 17) // [16]
	remove(16, 16) // emptied: [0..7] [8..15]
	remove(15, 9)  // [8]
	remove(8, 8)   // emptied, parent collapses: root leaf [0..7]
	remove(7, 0)   // empty root leaf
	return script
}

// TestABTreeTierBoundaries runs the tier-boundary script with the layout
// walk after every step, under one reclaimer of every guard kind: a leaf
// copied into the wrong tier, or a tier change that loses a key, fails at the
// step that made it.
func TestABTreeTierBoundaries(t *testing.T) {
	for _, smrName := range []string{"none", "debra", "hp", "ibr", "nbr"} {
		t.Run(smrName, func(t *testing.T) {
			set, _, _ := newTestSet(t, "abtree", smrName, 1)
			tree := set.(*ABTree)
			// What the script is for: it must build every leaf size and grow
			// the root to three children and back to a leaf.
			var fills [abLeafCap + 1]bool
			maxChildren := 0
			runScript(t, set, tierBoundaryScript(), func() {
				checkABTree(t, set)
				if root := tree.root.Load(); root.in != nil {
					maxChildren = max(maxChildren, len(root.in.children))
				}
				for fill, leaves := range abLeafFills(tree) {
					fills[fill] = fills[fill] || leaves > 0
				}
			})
			for fill, seen := range fills {
				if !seen {
					t.Errorf("the script never built a leaf of %d keys", fill)
				}
			}
			if root := tree.root.Load(); maxChildren != 3 || root.in != nil {
				t.Errorf("the script grew the root to %d children and ended on an internal root: %v, want 3 and false", maxChildren, root.in != nil)
			}
		})
	}
}

// abLeafFills counts a quiescent tree's leaves by the keys they hold.
func abLeafFills(tree *ABTree) (fills [abLeafCap + 1]int) {
	var walk func(n *abNode)
	walk = func(n *abNode) {
		if n.in == nil {
			fills[len(n.keys)]++
			return
		}
		for i := range n.in.children {
			walk(n.in.children[i].Load())
		}
	}
	walk(tree.root.Load())
	return fills
}

// TestABTreeLeafFillSteadyState pins the traffic the leaf tiers are sized
// for. Leaves split at 17 keys and merge only when empty, so under the
// update trials' 50/50 insert/delete mix they sit under half full: a mean of
// 6.5–7.1 keys, 1 leaf in 20 over 11. A rebalancing change that makes leaves
// dense fails here, next to the tiers it makes pointless, instead of showing
// up as an allocation regression nobody can explain.
func TestABTreeLeafFillSteadyState(t *testing.T) {
	if testing.Short() {
		// From a random prefill (mean 11 keys) the larger tree takes over a
		// million operations to settle, so there is no shorter form; CI
		// runs this one by name without -short.
		t.Skip("4 M single-threaded operations: 13 s under -race")
	}
	const ops = 2_000_000
	for _, keyRange := range []int64{512, 1 << 15} {
		t.Run(fmt.Sprintf("keyrange=%d", keyRange), func(t *testing.T) {
			set, _ := buildSet(t, "abtree", "debra")
			rng := rand.New(rand.NewSource(keyRange))
			for set.Size() < keyRange/2 {
				set.Insert(0, rng.Int63n(keyRange))
			}
			for i := 0; i < ops; i++ {
				if key := rng.Int63n(keyRange); i&1 == 0 {
					set.Insert(0, key)
				} else {
					set.Delete(0, key)
				}
			}
			fills := abLeafFills(set.(*ABTree))
			leaves, keys, small := 0, 0, 0
			for fill, n := range fills {
				leaves += n
				keys += fill * n
				if fill <= 11 {
					small += n
				}
			}
			mean := float64(keys) / float64(leaves)
			if mean < 5 || mean > 10 || small*10 < leaves*9 {
				t.Fatalf("%d leaves hold %.2f keys on average, %d of them at most 11: want a mean in [5, 10] and 90%% at most 11\nleaves by fill 0..%d: %v",
					leaves, mean, small, abLeafCap, fills)
			}
		})
	}
}

// checkSet runs the invariant walk of whichever tree set is.
func checkSet(t testing.TB, set Set) {
	t.Helper()
	switch tree := set.(type) {
	case *ABTree:
		checkABTree(t, set)
	case *OCCTree:
		checkOCCTree(t, tree)
	case *DGTree:
		checkDGTree(t, tree)
	}
}

// liveObject reports whether a reachable node's simulated object is still
// the application's; the trees' sentinels have none.
func liveObject(o *simalloc.Object) bool {
	return o == nil || o.State() == simalloc.StateAllocated
}

// checkOCCTree walks a quiescent OCCtree: keys in search-tree order, every
// reachable node unretired and backed by a live simulated object, and the
// unmarked nodes counting to Size().
func checkOCCTree(t testing.TB, tree *OCCTree) {
	t.Helper()
	var total int64
	var walk func(n *occNode, lo, hi int64, hasLo, hasHi bool)
	walk = func(n *occNode, lo, hi int64, hasLo, hasHi bool) {
		if n == nil {
			return
		}
		if (hasLo && n.key <= lo) || (hasHi && n.key >= hi) {
			t.Fatalf("occtree invariant: key %d outside its range (%d,%d) (%v,%v)", n.key, lo, hi, hasLo, hasHi)
		}
		if n.retired.Load() || !liveObject(n.obj) {
			t.Fatalf("occtree invariant: reachable node %d is retired or has no live simulated object", n.key)
		}
		if !n.marked.Load() {
			total++
		}
		walk(n.left.Load(), lo, n.key, hasLo, true)
		walk(n.right.Load(), n.key, hi, true, hasHi)
	}
	walk(tree.head.right.Load(), 0, 0, false, false)
	if got := tree.Size(); got != total {
		t.Fatalf("occtree invariant: %d unmarked nodes, Size() = %d", total, got)
	}
}

// checkDGTree walks a quiescent DGT tree: every internal node unretired with
// two children, keys below its routing key to the left and the rest to the
// right, every node backed by a live simulated object, and the leaves other
// than the sentinels counting to Size().
func checkDGTree(t testing.TB, tree *DGTree) {
	t.Helper()
	var total int64
	var walk func(n *dgNode, lo, hi int64, hasLo bool)
	walk = func(n *dgNode, lo, hi int64, hasLo bool) {
		if n == nil {
			t.Fatalf("dgtree invariant: nil child under range [%d,%d)", lo, hi)
		}
		// hi is exclusive except at dgInf, which the sentinels carry.
		if (hasLo && n.key < lo) || (n.key >= hi && hi != dgInf) {
			t.Fatalf("dgtree invariant: key %d outside its range [%d,%d)", n.key, lo, hi)
		}
		if n.retired.Load() || !liveObject(n.obj) {
			t.Fatalf("dgtree invariant: reachable node %d is retired or has no live simulated object", n.key)
		}
		if n.leaf {
			if n.key != dgInf {
				total++
			}
			return
		}
		walk(n.left.Load(), lo, n.key, hasLo)
		walk(n.right.Load(), n.key, hi, true)
	}
	walk(tree.root, 0, dgInf, false)
	if got := tree.Size(); got != total {
		t.Fatalf("dgtree invariant: %d keyed leaves, Size() = %d", total, got)
	}
}

// FuzzSetAgainstModel decodes its input as a script and runs it on all three
// trees, under a reclaimer that protects nothing per node and one that
// publishes hazards, against the map model. Seeds: TestSequentialAgainstModel's
// script, a short one of the same kind, and the tier-boundary walk.
func FuzzSetAgainstModel(f *testing.F) {
	f.Add(randomScript(42, 6000))
	f.Add(randomScript(7, 300))
	f.Add(tierBoundaryScript())
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, dsName := range Names() {
			for _, smrName := range []string{"debra", "hp"} {
				set, _, _ := newTestSet(t, dsName, smrName, 1)
				runScript(t, set, script, nil)
			}
		}
	})
}
