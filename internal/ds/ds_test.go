package ds

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/simalloc"
	"repro/internal/smr"
)

// newTestSet builds a set over a uniform-cost jemalloc model and the given
// reclaimer name.
func newTestSet(t testing.TB, dsName, smrName string, threads int) (Set, simalloc.Allocator, smr.Reclaimer) {
	t.Helper()
	acfg := simalloc.DefaultConfig(threads)
	acfg.Cost = simalloc.Uniform()
	acfg.TCacheCap = 32
	acfg.FillCount = 16
	acfg.PageRunObjects = 16
	alloc := simalloc.NewJEMalloc(acfg)
	rcfg := smr.DefaultConfig(alloc, threads)
	rcfg.BatchSize = 64
	rec, err := smr.New(smrName, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := New(dsName, alloc, rec)
	if err != nil {
		t.Fatal(err)
	}
	return set, alloc, rec
}

func TestNewUnknown(t *testing.T) {
	_, alloc, rec := newTestSet(t, "abtree", "none", 1)
	if _, err := New("bogus", alloc, rec); err == nil {
		t.Fatal("expected error for unknown ds name")
	}
}

// abLeafTier returns the capacity newNode gives a leaf of n keys.
func abLeafTier(n int) int { return min(n|1, abLeafCap) }

// abFanout returns the keys a leaf holds or the children an internal node
// has.
func abFanout(n *abNode) int {
	if n.in != nil {
		return len(n.in.children)
	}
	return len(n.keys)
}

// checkABTree walks a quiescent ABtree and checks its host layout: leaf keys
// strictly ascending, 1 <= len <= abLeafCap of them (only a root leaf may be
// empty) in storage of the smallest tier that holds them, internal nodes
// whose header points back at them, with 2 <= n <= abInternalCap children in
// storage of one of the three capacities, nil slots from n on and n-1
// strictly ascending routing keys, every key inside the range its ancestors'
// routing keys send to it, every reachable node unretired and backed by a
// live simulated object, and the leaf counts summing to Size(). Other sets
// pass through.
func checkABTree(t testing.TB, set Set) {
	t.Helper()
	tree, ok := set.(*ABTree)
	if !ok {
		return
	}
	root := tree.root.Load()
	var total int64
	// lo/hi bound the subtree's keys (lo <= k < hi) where the flags are set.
	var walk func(n *abNode, lo, hi int64, hasLo, hasHi bool) error
	walk = func(n *abNode, lo, hi int64, hasLo, hasHi bool) error {
		if n == nil {
			return fmt.Errorf("nil child under range [%d,%d)", lo, hi)
		}
		if n.obj == nil || n.obj.State() != simalloc.StateAllocated {
			return fmt.Errorf("reachable node %v has no live simulated object", n.keys)
		}
		inRange := func(k int64) bool { return (!hasLo || k >= lo) && (!hasHi || k < hi) }
		if n.in == nil {
			keys := n.keys
			if len(keys) > abLeafCap || (len(keys) < 1 && n != root) {
				return fmt.Errorf("leaf holds %d keys", len(keys))
			}
			if cap(keys) != abLeafTier(len(keys)) {
				return fmt.Errorf("leaf of %d keys has room for %d, want the %d-key tier", len(keys), cap(keys), abLeafTier(len(keys)))
			}
			for i, k := range keys {
				if i > 0 && keys[i-1] >= k {
					return fmt.Errorf("leaf keys not strictly ascending: %v", keys)
				}
				if !inRange(k) {
					return fmt.Errorf("leaf key %d outside its routed range [%d,%d) (%v,%v)", k, lo, hi, hasLo, hasHi)
				}
			}
			total += int64(len(keys))
			return nil
		}
		in := n.in
		if &in.abNode != n {
			return fmt.Errorf("internal node's header does not point back at it")
		}
		if n.keys != nil {
			return fmt.Errorf("internal node carries leaf keys %v", n.keys)
		}
		if c := cap(in.children); (c != 16 && c != 32 && c != abInternalCap) || cap(in.route) != c-1 {
			return fmt.Errorf("internal node has room for %d children and %d routing keys", c, cap(in.route))
		}
		count, route := len(in.children), in.route
		if count < 2 || len(route) != count-1 {
			return fmt.Errorf("internal node has %d children and %d routing keys", count, len(route))
		}
		if in.lock.retired.Load() {
			return fmt.Errorf("reachable internal node %v is retired", route)
		}
		for i, slots := count, in.children[:cap(in.children)]; i < len(slots); i++ {
			if slots[i].Load() != nil {
				return fmt.Errorf("internal node with %d children has slot %d set", count, i)
			}
		}
		for i, k := range route {
			if i > 0 && route[i-1] >= k {
				return fmt.Errorf("routing keys not strictly ascending: %v", route)
			}
			if !inRange(k) {
				return fmt.Errorf("routing key %d outside its routed range [%d,%d) (%v,%v)", k, lo, hi, hasLo, hasHi)
			}
		}
		for i := 0; i < count; i++ {
			clo, chi, cHasLo, cHasHi := lo, hi, hasLo, hasHi
			if i > 0 {
				clo, cHasLo = route[i-1], true
			}
			if i < len(route) {
				chi, cHasHi = route[i], true
			}
			if err := walk(in.children[i].Load(), clo, chi, cHasLo, cHasHi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, 0, 0, false, false); err != nil {
		t.Fatalf("abtree invariant: %v", err)
	}
	if got := tree.Size(); got != total {
		t.Fatalf("abtree invariant: leaves hold %d keys, Size() = %d", total, got)
	}
}

// TestSequentialAgainstModel runs a randomized op sequence against a
// reference model for every (ds, representative reclaimer) pair.
func TestSequentialAgainstModel(t *testing.T) {
	for _, dsName := range Names() {
		for _, smrName := range []string{"none", "debra", "debra_af", "token_af", "hp"} {
			t.Run(dsName+"/"+smrName, func(t *testing.T) {
				set, _, _ := newTestSet(t, dsName, smrName, 1)
				runScript(t, set, randomScript(42, 6000), nil)
			})
		}
	}
}

// TestQuickProperty uses testing/quick: for any op sequence, the set agrees
// with a reference model.
func TestQuickProperty(t *testing.T) {
	for _, dsName := range Names() {
		dsName := dsName
		t.Run(dsName, func(t *testing.T) {
			f := func(ops []uint16) bool {
				set, _, _ := newTestSet(t, dsName, "qsbr", 1)
				model := map[int64]bool{}
				for _, op := range ops {
					key := int64(op % 64)
					if op&0x8000 != 0 {
						if set.Insert(0, key) != !model[key] {
							return false
						}
						model[key] = true
					} else {
						if set.Delete(0, key) != model[key] {
							return false
						}
						delete(model, key)
					}
				}
				for k := int64(0); k < 64; k++ {
					if set.Contains(0, k) != model[k] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestConcurrentStress partitions the key space among goroutines (each
// owns a disjoint slice), so every thread can check its own operations'
// results exactly even under full concurrency. Threads quiesce every 64 ops
// as the harness's workers do, so the ABtree recycles leaves under
// contention (and under -race).
func TestConcurrentStress(t *testing.T) {
	const threads = 8
	const opsEach = 3000
	for _, dsName := range Names() {
		for _, smrName := range []string{"debra", "token_af", "nbrplus", "ibr"} {
			dsName, smrName := dsName, smrName
			t.Run(dsName+"/"+smrName, func(t *testing.T) {
				set, alloc, rec := newTestSet(t, dsName, smrName, threads)
				var wg sync.WaitGroup
				for tid := 0; tid < threads; tid++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						set.Quiesce(tid)
						defer set.Park(tid)
						rng := rand.New(rand.NewSource(int64(tid)))
						base := int64(tid * 1000)
						local := map[int64]bool{}
						for i := 0; i < opsEach; i++ {
							if i%64 == 63 {
								set.Quiesce(tid)
							}
							key := base + rng.Int63n(200)
							if rng.Intn(2) == 0 {
								want := !local[key]
								if got := set.Insert(tid, key); got != want {
									t.Errorf("tid %d: Insert(%d) = %v, want %v", tid, key, got, want)
									return
								}
								local[key] = true
							} else {
								want := local[key]
								if got := set.Delete(tid, key); got != want {
									t.Errorf("tid %d: Delete(%d) = %v, want %v", tid, key, got, want)
									return
								}
								delete(local, key)
							}
						}
						for k := range local {
							if !set.Contains(tid, k) {
								t.Errorf("tid %d: key %d missing at end", tid, k)
								return
							}
						}
					}(tid)
				}
				wg.Wait()
				for tid := 0; tid < threads; tid++ {
					rec.Drain(tid)
				}
				st := rec.Stats()
				if smrName != "none" && st.Limbo != 0 {
					t.Errorf("limbo = %d after drain", st.Limbo)
				}
				_ = alloc
				checkSet(t, set)
			})
		}
	}
}

// TestConcurrentMixedKeys has all threads hammer the same small key range
// (maximum contention) and validates final contents against a single
// post-hoc sequential scan. Threads quiesce every 64 ops, as in
// TestConcurrentStress.
func TestConcurrentMixedKeys(t *testing.T) {
	const threads = 8
	for _, dsName := range Names() {
		dsName := dsName
		t.Run(dsName, func(t *testing.T) {
			set, _, _ := newTestSet(t, dsName, "debra", threads)
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					set.Quiesce(tid)
					defer set.Park(tid)
					rng := rand.New(rand.NewSource(int64(100 + tid)))
					for i := 0; i < 4000; i++ {
						if i%64 == 63 {
							set.Quiesce(tid)
						}
						key := rng.Int63n(64)
						if rng.Intn(2) == 0 {
							set.Insert(tid, key)
						} else {
							set.Delete(tid, key)
						}
					}
				}(tid)
			}
			wg.Wait()
			// Size must equal the number of keys Contains reports present.
			var present int64
			set.Quiesce(0)
			for k := int64(0); k < 64; k++ {
				if set.Contains(0, k) {
					present++
				}
			}
			set.Park(0)
			if got := set.Size(); got != present {
				t.Fatalf("Size = %d but %d keys are present", got, present)
			}
			checkSet(t, set)
		})
	}
}

// TestABTreeSplitAndCollapse drives the tree through leaf splits and
// empty-leaf collapses.
func TestABTreeSplitAndCollapse(t *testing.T) {
	set, _, _ := newTestSet(t, "abtree", "none", 1)
	const n = 10 * abLeafCap
	for k := int64(0); k < n; k++ {
		if !set.Insert(0, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if set.Size() != n {
		t.Fatalf("Size = %d, want %d", set.Size(), n)
	}
	for k := int64(0); k < n; k++ {
		if !set.Contains(0, k) {
			t.Fatalf("key %d missing after splits", k)
		}
	}
	checkABTree(t, set)
	// Delete everything to force empty-leaf removals and collapses.
	for k := int64(0); k < n; k++ {
		if !set.Delete(0, k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if set.Size() != 0 {
		t.Fatalf("Size = %d after deleting all", set.Size())
	}
	for k := int64(0); k < n; k++ {
		if set.Contains(0, k) {
			t.Fatalf("key %d still present", k)
		}
	}
	checkABTree(t, set)
}

// TestABTreeAllocationProfile pins the paper's claim: the ABtree allocates
// (and retires) one or two fat nodes per update on average.
func TestABTreeAllocationProfile(t *testing.T) {
	set, alloc, _ := newTestSet(t, "abtree", "none", 1)
	rng := rand.New(rand.NewSource(7))
	const keyRange = 4096
	for i := 0; i < keyRange; i++ {
		set.Insert(0, rng.Int63n(keyRange))
	}
	before := alloc.Stats().Allocs
	const ops = 20000
	succ := 0
	for i := 0; i < ops; i++ {
		key := rng.Int63n(keyRange)
		if i%2 == 0 {
			if set.Insert(0, key) {
				succ++
			}
		} else if set.Delete(0, key) {
			succ++
		}
	}
	allocsPerSucc := float64(alloc.Stats().Allocs-before) / float64(succ)
	if allocsPerSucc < 0.8 || allocsPerSucc > 2.5 {
		t.Fatalf("ABtree allocates %.2f nodes per successful update; want ~1-2", allocsPerSucc)
	}
}

// TestOCCTreeAllocationProfile pins the contrast: the OCCtree allocates at
// most one node per insert and nothing on delete.
func TestOCCTreeAllocationProfile(t *testing.T) {
	set, alloc, _ := newTestSet(t, "occtree", "none", 1)
	for k := int64(0); k < 100; k++ {
		set.Insert(0, k)
	}
	before := alloc.Stats().Allocs
	for k := int64(0); k < 100; k++ {
		set.Delete(0, k)
	}
	if got := alloc.Stats().Allocs - before; got != 0 {
		t.Fatalf("OCCtree deletes allocated %d nodes; want 0", got)
	}
	before = alloc.Stats().Allocs
	for k := int64(0); k < 100; k++ {
		set.Insert(0, k)
	}
	if got := alloc.Stats().Allocs - before; got > 100 {
		t.Fatalf("OCCtree inserts allocated %d nodes for 100 inserts", got)
	}
}

// TestOCCTreeMarkRevive exercises the logical-delete/revive path.
func TestOCCTreeMarkRevive(t *testing.T) {
	set, alloc, _ := newTestSet(t, "occtree", "none", 1)
	// Build a node with two children: 50 with children 25 and 75.
	for _, k := range []int64{50, 25, 75} {
		set.Insert(0, k)
	}
	before := alloc.Stats().Allocs
	if !set.Delete(0, 50) {
		t.Fatal("Delete(50) failed")
	}
	if set.Contains(0, 50) {
		t.Fatal("50 still present after logical delete")
	}
	if !set.Contains(0, 25) || !set.Contains(0, 75) {
		t.Fatal("children lost after logical delete")
	}
	// Revive: insert of the marked key allocates nothing.
	if !set.Insert(0, 50) {
		t.Fatal("revive Insert(50) failed")
	}
	if got := alloc.Stats().Allocs - before; got != 0 {
		t.Fatalf("mark+revive allocated %d nodes; want 0", got)
	}
	if !set.Contains(0, 50) {
		t.Fatal("50 missing after revive")
	}
}

// TestDGTreeRetireProfile pins the DGT profile: 2 allocations per insert,
// 2 retirements per delete.
func TestDGTreeRetireProfile(t *testing.T) {
	set, alloc, rec := newTestSet(t, "dgtree", "none", 1)
	base := alloc.Stats().Allocs
	for k := int64(0); k < 50; k++ {
		if !set.Insert(0, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if got := alloc.Stats().Allocs - base; got != 100 {
		t.Fatalf("50 inserts allocated %d nodes; want 100", got)
	}
	for k := int64(0); k < 50; k++ {
		if !set.Delete(0, k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if got := rec.Stats().Retired; got != 100 {
		t.Fatalf("50 deletes retired %d nodes; want 100", got)
	}
}

// TestTicketLockFIFO checks mutual exclusion and progress of the ticket lock.
func TestTicketLockFIFO(t *testing.T) {
	var l ticketLock
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000 (lost updates)", counter)
	}
	if l.owner.Load() != l.next.Load() {
		t.Fatal("lock still held after all unlocks")
	}
}

// TestSizeCtr checks the padded per-thread size counter.
func TestSizeCtr(t *testing.T) {
	c := newSizeCtr(4)
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.add(tid, 1)
			}
			for i := 0; i < 400; i++ {
				c.add(tid, -1)
			}
		}(tid)
	}
	wg.Wait()
	if got := c.total(); got != 4*600 {
		t.Fatalf("total = %d, want 2400", got)
	}
}

// TestInsertRemoveSortedHelpers covers the ABtree copy-on-write leaf
// builders at the first, a middle and the last position, and removal down
// to the empty leaf.
func TestInsertRemoveSortedHelpers(t *testing.T) {
	set, _, _ := newTestSet(t, "abtree", "none", 1)
	tree := set.(*ABTree)
	with := func(n *abNode, key int64) *abNode {
		t.Helper()
		i, found := leafFind(n, key)
		if found {
			t.Fatalf("leafFind(%v, %d) found a key that is not there", n.keys, key)
		}
		return tree.leafWith(0, n, i, key)
	}
	without := func(n *abNode, key int64) *abNode {
		t.Helper()
		i, found := leafFind(n, key)
		if !found {
			t.Fatalf("leafFind(%v, %d) missed a key that is there", n.keys, key)
		}
		return tree.leafWithout(0, n, i)
	}
	expect := func(what string, n *abNode, want ...int64) {
		t.Helper()
		if got := n.keys; !slices.Equal(got, want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
		if n.in != nil || n.obj == nil {
			t.Fatalf("%s: not a leaf backed by a simulated object", what)
		}
		if cap(n.keys) != abLeafTier(len(want)) {
			t.Fatalf("%s: room for %d keys, want the %d-key tier", what, cap(n.keys), abLeafTier(len(want)))
		}
	}

	base := tree.newLeaf(0, []int64{10, 20, 30})
	expect("newLeaf", base, 10, 20, 30)
	expect("leafWith first", with(base, 5), 5, 10, 20, 30)
	expect("leafWith middle", with(base, 25), 10, 20, 25, 30)
	expect("leafWith last", with(base, 35), 10, 20, 30, 35)
	expect("leafWith into empty", with(tree.newLeaf(0, nil), 7), 7)
	expect("leafWithout first", without(base, 10), 20, 30)
	expect("leafWithout middle", without(base, 20), 10, 30)
	expect("leafWithout last", without(base, 30), 10, 20)
	expect("source leaf after copies", base, 10, 20, 30)
	n := base
	for _, k := range []int64{20, 10, 30} {
		n = without(n, k)
	}
	expect("leafWithout to empty", n)

	// A full leaf: the last free position fills, and the last key leaves.
	full := tree.newLeaf(0, nil)
	var want []int64
	for k := int64(0); k < abLeafCap; k++ {
		full = with(full, 2*k)
		want = append(want, 2*k)
	}
	expect("leafWith to capacity", full, want...)
	expect("leafWithout from full", without(full, 2*(abLeafCap-1)), want[:abLeafCap-1]...)
}

// TestRetiredNodesEventuallyFreed runs churn through DEBRA and verifies the
// allocator sees frees (the full retire→free pipeline works end to end).
func TestRetiredNodesEventuallyFreed(t *testing.T) {
	for _, dsName := range Names() {
		dsName := dsName
		t.Run(dsName, func(t *testing.T) {
			set, alloc, rec := newTestSet(t, dsName, "debra", 2)
			var wg sync.WaitGroup
			for tid := 0; tid < 2; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid)))
					for i := 0; i < 5000; i++ {
						key := rng.Int63n(100)
						if rng.Intn(2) == 0 {
							set.Insert(tid, key)
						} else {
							set.Delete(tid, key)
						}
					}
				}(tid)
			}
			wg.Wait()
			rec.Drain(0)
			rec.Drain(1)
			if alloc.Stats().Frees == 0 {
				t.Fatal("no frees reached the allocator")
			}
			st := rec.Stats()
			if st.Freed != st.Retired {
				t.Fatalf("freed %d != retired %d after drain", st.Freed, st.Retired)
			}
		})
	}
}
