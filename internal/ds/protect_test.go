package ds

import (
	"testing"

	"repro/internal/simalloc"
	"repro/internal/smr"
)

// countingReclaimer forwards every call, Guard included, and counts the
// interface Protect calls.
type countingReclaimer struct {
	smr.Reclaimer
	protects int
}

func (c *countingReclaimer) Protect(tid, slot int, o *simalloc.Object) {
	c.protects++
	c.Reclaimer.Protect(tid, slot, o)
}

// TestTreesProtectThroughGuardsOnly pins that there is one protection path:
// over a seeded script on every tree, a reclaimer whose Protect is a real
// publication hands out a live guard, still retires and frees, and never
// sees a Protect call through the interface.
func TestTreesProtectThroughGuardsOnly(t *testing.T) {
	for _, dsName := range Names() {
		for _, smrName := range []string{"hp", "he", "ibr", "wfe"} {
			t.Run(dsName+"/"+smrName, func(t *testing.T) {
				_, alloc, rec := newTestSet(t, dsName, smrName, 1)
				counted := &countingReclaimer{Reclaimer: rec}
				if counted.Guard(0) == nil {
					t.Fatal("no guard: the script would not exercise per-node protection")
				}
				set, err := New(dsName, alloc, counted)
				if err != nil {
					t.Fatal(err)
				}
				runScript(t, set, randomScript(42, 6000), nil)
				if st := rec.Stats(); st.Retired == 0 || st.Freed == 0 {
					t.Fatalf("script did not reclaim: retired %d, freed %d", st.Retired, st.Freed)
				}
				if counted.protects != 0 {
					t.Fatalf("%d Protect calls went through the Reclaimer interface, want 0", counted.protects)
				}
			})
		}
	}
}

// TestDGTreeSeekProtectsItsLeaf pins that seek publishes the leaf it returns,
// not only the internal nodes above it: with tid 1's op open on that leaf,
// tid 0 retires the leaf's object and enough fillers to scan, and the scan
// must find it held.
func TestDGTreeSeekProtectsItsLeaf(t *testing.T) {
	set, alloc, rec := newTestSet(t, "dgtree", "hp", 2)
	tree := set.(*DGTree)
	for k := int64(0); k < 16; k++ {
		set.Insert(0, k)
	}
	rec.BeginOp(1)
	_, _, _, _, leaf := tree.seek(1, 7)
	if leaf.key != 7 || leaf.obj == nil {
		t.Fatalf("seek(7) returned leaf %d (obj %v), want the real leaf 7", leaf.key, leaf.obj)
	}
	before := rec.Stats().Freed
	rec.Retire(0, leaf.obj)
	for rec.Stats().Freed == before {
		rec.Retire(0, alloc.Alloc(0, DGTreeNodeBytes))
	}
	if leaf.obj.State() != simalloc.StateAllocated {
		t.Fatalf("a scan freed the leaf tid 1's seek returned (state %v)", leaf.obj.State())
	}
	rec.EndOp(1)
}
