package bench

import (
	"testing"
	"time"

	"repro/internal/simalloc"
)

// hugeCosts is a machine on which one first touch, and one object returned
// to a bin, burn about a millisecond: set-up and teardown that still paid
// the table would take seconds, three orders of magnitude over the limits
// below, so these are not timing flakes.
func hugeCosts() simalloc.CostModel {
	cm := simalloc.Intel192()
	cm.FreshObject = 1e6
	cm.PerObjectFree = 1e6
	return cm
}

// TestPrefillRunsUncosted: RunTrial reaches the end of a 4096-node prefill
// — 64 fresh page runs, over four seconds of first touches if costed —
// within a second.
func TestPrefillRunsUncosted(t *testing.T) {
	cfg := tinyWorkload(1)
	cfg.DataStructure = "occtree" // one fresh 64-byte node per prefilled key
	cfg.KeyRange = 1 << 13
	cfg.FixedOps = 64
	cfg.Cost = hugeCosts()
	var prefillTook time.Duration
	t0 := time.Now()
	OnFirstPrefillDone(func() { prefillTook = time.Since(t0) })
	if _, err := RunTrial(cfg); err != nil {
		t.Fatal(err)
	}
	if prefillTook == 0 {
		t.Fatal("OnFirstPrefillDone never fired")
	}
	if prefillTook > time.Second {
		t.Fatalf("construction and prefill took %v: they paid the cost table", prefillTook)
	}
}

// TestWindowIsCostedTeardownIsNot drives the stack as runTrialInner does:
// after openWindow a fresh page run pays its 64 first touches, and Close,
// with 2000 objects left in limbo to push through ~25 cache flushes, pays
// nothing.
func TestWindowIsCostedTeardownIsNot(t *testing.T) {
	cfg := tinyWorkload(2)
	cfg.Cost = hugeCosts()
	cfg.BatchSize = 1 << 14 // the retires below stay in limbo until Close
	st, err := newStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefill(&cfg, st)
	// Garbage for Close to drain, allocated while allocating is still free.
	garbage := make([]*simalloc.Object, 2000)
	for i := range garbage {
		garbage[i] = st.Alloc.Alloc(0, 64)
	}
	st.openWindow()

	t0 := time.Now()
	st.Alloc.Alloc(0, simalloc.MaxSmallSize) // a class nothing has touched: carves a run
	// 64 million xorshift steps; no host runs one in under a sixth of a
	// nanosecond.
	if took := time.Since(t0); took < 10*time.Millisecond {
		t.Fatalf("a fresh page run inside the window took %v: the window is not costed", took)
	}

	prefilled := st.Reclaimer.Stats().Freed
	for _, o := range garbage {
		st.Reclaimer.Retire(0, o)
	}
	res := st.Snapshot(1, time.Millisecond)
	if res.SMR.Freed != prefilled {
		t.Fatalf("%d objects were freed inside the window; Close must have them all to drain", res.SMR.Freed-prefilled)
	}
	t0 = time.Now()
	st.Close()
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("Close took %v after Snapshot: the drain paid the cost table", took)
	}
	if freed := st.Reclaimer.Stats().Freed - prefilled; freed < int64(len(garbage)) {
		t.Fatalf("Close freed %d objects, want at least the %d retired", freed, len(garbage))
	}
	if flushes := st.Alloc.Stats().Flushes - res.Alloc.Flushes; flushes < 20 {
		t.Fatalf("Close's drain flushed %d times, want >= 20: the test no longer loads teardown", flushes)
	}
}

// TestPctSharesCountFromWindowOpen: %free, %flush and %lock are shares of
// window thread-time, so allocator time spent before the window opened is
// not in them, while the counts in Alloc stay cumulative.
func TestPctSharesCountFromWindowOpen(t *testing.T) {
	st, err := NewStack(tinyWorkload(2)) // costed: the time below is real
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// churn allocates on tid 0 and frees on tid 1, so caches overflow into
	// remote flushes: free, flush and lock time all accrue.
	churn := func() {
		objs := make([]*simalloc.Object, 1000)
		for i := range objs {
			objs[i] = st.Alloc.Alloc(0, 64)
		}
		for _, o := range objs {
			st.Alloc.Free(1, o)
		}
	}
	churn()
	before := st.Alloc.Stats()
	if before.FreeNanos == 0 || before.FlushNanos == 0 || before.Flushes == 0 {
		t.Fatalf("no allocator time to misattribute: %+v", before)
	}
	st.openWindow()
	wall := 10 * time.Millisecond
	res := st.Snapshot(1, wall)
	if res.PctFree != 0 || res.PctFlush != 0 || res.PctLock != 0 {
		t.Fatalf("a window with no frees reports %%free=%v %%flush=%v %%lock=%v", res.PctFree, res.PctFlush, res.PctLock)
	}
	if res.Alloc.Frees != before.Frees || res.Alloc.Flushes != before.Flushes || res.Alloc.FreeNanos != before.FreeNanos {
		t.Fatalf("Alloc is no longer cumulative: %+v, before the window %+v", res.Alloc, before)
	}

	churn()
	res = st.Snapshot(1, wall)
	after := st.Alloc.Stats()
	if want := simalloc.PctOf(after.FreeNanos-before.FreeNanos, wall, 2); res.PctFree != want || want <= 0 {
		t.Fatalf("%%free = %v, want the window's own share %v", res.PctFree, want)
	}
}
