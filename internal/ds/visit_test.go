package ds

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simalloc"
	"repro/internal/smr"
)

// TestNoVisitAfterFree runs every reclaimer but none on every tree, four
// threads on 64 shared keys, and checks at each validated visit that the
// visited node's object is not free. The widened pass yields between each
// load and its publication, so an unlink, retire and free fits in the window
// a descent has to validate. A descent that publishes without re-reading the
// slot, or a reclaimer that frees before a reader's grace period ends, shows
// up as visits to freed nodes in a few pairings per run; the failure names
// them. The check undercounts: a freed object handed out again reads
// allocated.
func TestNoVisitAfterFree(t *testing.T) {
	const threads, keys = 4, 64
	var visits, freed atomic.Int64
	testHookVisit = func(o *simalloc.Object) {
		visits.Add(1)
		if o != nil && o.State() == simalloc.StateFree {
			freed.Add(1)
		}
	}
	defer func() { testHookVisit, testHookLoaded = nil, nil }()

	for _, pass := range []struct {
		name   string
		loaded func()
		ops    int
	}{{"tight", nil, 500}, {"widened", runtime.Gosched, 1500}} {
		testHookLoaded = pass.loaded
		for _, dsName := range Names() {
			for _, smrName := range smr.Names() {
				if smrName == "none" {
					continue
				}
				visits.Store(0)
				freed.Store(0)
				acfg := simalloc.DefaultConfig(threads)
				acfg.Cost = simalloc.Uniform()
				alloc := simalloc.NewJEMalloc(acfg)
				rcfg := smr.DefaultConfig(alloc, threads)
				rcfg.BatchSize = 8 // frees soon after the unlink, inside a descent's window
				rec, err := smr.New(smrName, rcfg)
				if err != nil {
					t.Fatal(err)
				}
				set, err := New(dsName, alloc, rec)
				if err != nil {
					t.Fatal(err)
				}
				for k := int64(0); k < keys; k += 2 {
					set.Insert(0, k)
				}
				var wg sync.WaitGroup
				for tid := 0; tid < threads; tid++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(tid) + 1))
						for i := 0; i < pass.ops; i++ {
							key := rng.Int63n(keys)
							switch rng.Intn(3) {
							case 0:
								set.Insert(tid, key)
							case 1:
								set.Delete(tid, key)
							default:
								set.Contains(tid, key)
							}
						}
					}(tid)
				}
				wg.Wait()
				if n := freed.Load(); n != 0 {
					t.Errorf("%s/%s (%s): %d of %d visits reached a freed node", dsName, smrName, pass.name, n, visits.Load())
				}
			}
		}
	}
}
