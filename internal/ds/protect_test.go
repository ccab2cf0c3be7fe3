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
		for _, smrName := range []string{"hp", "he", "ibr", "nbr"} {
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
