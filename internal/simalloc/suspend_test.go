package simalloc_test

import (
	"reflect"
	"testing"

	"repro/internal/simalloc"
	"repro/internal/smr"
)

// The harness runs the allocators with a suspended cost table outside the
// measured window. That is only sound if the table changes nothing but the
// burn: these tests hold every model, and the pooling wrapper, to it.

func scriptConfig() simalloc.Config {
	cfg := simalloc.DefaultConfig(4)
	// Two sockets of two threads, so frees cross sockets and arenas.
	cfg.Cost.ThreadsPerSocket, cfg.Cost.Sockets = 2, 2
	cfg.TCacheCap, cfg.FillCount, cfg.PageRunObjects = 16, 8, 8
	return cfg
}

// scriptAllocators builds each model, and the pool over jemalloc, on cfg.
func scriptAllocators(t *testing.T, cfg simalloc.Config) map[string]simalloc.Allocator {
	t.Helper()
	out := map[string]simalloc.Allocator{}
	for _, name := range simalloc.AllocatorNames() {
		a, err := simalloc.New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = a
	}
	out["pool+jemalloc"] = smr.NewPoolAllocator(simalloc.NewJEMalloc(cfg), 4)
	return out
}

// scriptCounts is what must not depend on the cost table, besides the
// object IDs.
type scriptCounts struct {
	Allocs, Frees, RemoteFrees, Flushes, FreshPages int64
	PeakBytes                                       int64
}

// runScript drives one seeded single-goroutine Alloc/Free/FlushThreadCache
// script over four tids and returns the object IDs in allocation order with
// the modelled counts. Frees go to a random tid, so many are remote. flip,
// when non-nil, is called once halfway through.
func runScript(a simalloc.Allocator, flip func()) (ids []uint64, out scriptCounts) {
	const steps = 6000
	sizes := []int{48, 64, 240}
	var live []*simalloc.Object
	x := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int((x >> 17) % uint64(n))
	}
	for i := 0; i < steps; i++ {
		if i == steps/2 && flip != nil {
			flip()
		}
		tid := next(a.Threads())
		switch op := next(100); {
		case op < 50 || len(live) == 0:
			o := a.Alloc(tid, sizes[next(len(sizes))])
			ids = append(ids, o.ID)
			live = append(live, o)
		case op < 98:
			j := next(len(live))
			a.Free(tid, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			a.FlushThreadCache(tid)
		}
	}
	st := a.Stats()
	out.Allocs, out.Frees, out.RemoteFrees = st.Allocs, st.Frees, st.RemoteFrees
	out.Flushes, out.FreshPages, out.PeakBytes = st.Flushes, st.FreshPages, st.PeakBytes
	return ids, out
}

func TestSuspendedCostsKeepCounts(t *testing.T) {
	cfg := scriptConfig()
	costed := scriptAllocators(t, cfg)
	suspended := scriptAllocators(t, cfg)
	flipped := scriptAllocators(t, cfg)
	for name, a := range costed {
		t.Run(name, func(t *testing.T) {
			wantIDs, want := runScript(a, nil)
			// mimalloc has no cache to flush.
			if want.RemoteFrees == 0 || want.FreshPages < 2 || (want.Flushes == 0 && name != "mimalloc") {
				t.Fatalf("script too tame to tell tables apart: %+v", want)
			}
			same := func(how string, ids []uint64, got scriptCounts) {
				t.Helper()
				if got != want {
					t.Errorf("%s: counts %+v, costed run %+v", how, got, want)
				}
				if !reflect.DeepEqual(ids, wantIDs) {
					t.Errorf("%s: object IDs differ from the costed run's", how)
				}
			}

			sw := suspended[name].(simalloc.CostSwapper)
			if old := sw.SwapCost(cfg.Cost.Suspended()); old != cfg.Cost {
				t.Fatalf("suspending returned %+v, want the configured table %+v", old, cfg.Cost)
			}
			ids, got := runScript(suspended[name], nil)
			same("suspended", ids, got)
			if old := sw.SwapCost(cfg.Cost); old != cfg.Cost.Suspended() {
				t.Fatalf("restoring returned %+v, want the suspended table", old)
			}
			if now := sw.SwapCost(cfg.Cost); now != cfg.Cost {
				t.Fatalf("table after suspend and restore is %+v, want exactly %+v", now, cfg.Cost)
			}

			// The harness's own use: suspended until the window opens.
			fw := flipped[name].(simalloc.CostSwapper)
			fw.SwapCost(cfg.Cost.Suspended())
			ids, got = runScript(flipped[name], func() { fw.SwapCost(cfg.Cost) })
			same("costs turned on halfway", ids, got)
		})
	}
}

func TestSuspendedZeroesBurnKeepsTopology(t *testing.T) {
	for _, cm := range []simalloc.CostModel{simalloc.Intel192(), simalloc.Intel144(), simalloc.AMD256(), simalloc.Uniform()} {
		s := cm.Suspended()
		if s.LocalTouch != 0 || s.PerObjectFree != 0 || s.PerObjectAlloc != 0 || s.FreshPage != 0 || s.FreshObject != 0 {
			t.Errorf("%s: Suspended() left burn in the table: %+v", cm.Name, s)
		}
		if s.Name != cm.Name || s.ThreadsPerSocket != cm.ThreadsPerSocket || s.Sockets != cm.Sockets || s.RemoteFactor != cm.RemoteFactor {
			t.Errorf("%s: Suspended() moved the topology: %+v", cm.Name, s)
		}
	}
}

func TestSwapCostRejectsOtherTopology(t *testing.T) {
	a := simalloc.NewJEMalloc(scriptConfig()) // arenas homed for 2 threads a socket
	defer func() {
		if recover() == nil {
			t.Fatal("SwapCost accepted a table with another topology")
		}
	}()
	a.SwapCost(simalloc.Intel192())
}
