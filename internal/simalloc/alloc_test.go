package simalloc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

// smallConfig returns a config sized for fast tests.
func smallConfig(threads int) Config {
	cfg := DefaultConfig(threads)
	cfg.Cost = Uniform()
	cfg.TCacheCap = 16
	cfg.FillCount = 8
	cfg.PageRunObjects = 8
	return cfg
}

func allAllocators(t *testing.T, threads int) []Allocator {
	t.Helper()
	var out []Allocator
	for _, name := range AllocatorNames() {
		a, err := New(name, smallConfig(threads))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		out = append(out, a)
	}
	return out
}

func TestNewUnknownName(t *testing.T) {
	if _, err := New("bogus", smallConfig(1)); err == nil {
		t.Fatal("expected error for unknown allocator name")
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	for _, a := range allAllocators(t, 2) {
		t.Run(a.Name(), func(t *testing.T) {
			o := a.Alloc(0, 240)
			if o.State() != StateAllocated {
				t.Fatal("fresh object not in allocated state")
			}
			if o.Size != 240 {
				t.Fatalf("size rounded to %d, want 240", o.Size)
			}
			a.Free(0, o)
			if o.State() != StateFree {
				t.Fatal("freed object not in free state")
			}
			st := a.Stats()
			if st.Allocs != 1 || st.Frees != 1 {
				t.Fatalf("stats = %+v, want 1 alloc / 1 free", st)
			}
		})
	}
}

func TestDoubleFreePanics(t *testing.T) {
	for _, a := range allAllocators(t, 1) {
		t.Run(a.Name(), func(t *testing.T) {
			o := a.Alloc(0, 64)
			a.Free(0, o)
			defer func() {
				if recover() == nil {
					t.Fatal("double free did not panic")
				}
			}()
			a.Free(0, o)
		})
	}
}

func TestReuseAfterFree(t *testing.T) {
	// Freed objects must be recycled: allocating after freeing should not
	// grow the mapped footprint.
	for _, a := range allAllocators(t, 1) {
		t.Run(a.Name(), func(t *testing.T) {
			objs := make([]*Object, 64)
			for i := range objs {
				objs[i] = a.Alloc(0, 64)
			}
			grown := a.Stats().PeakBytes
			for _, o := range objs {
				a.Free(0, o)
			}
			for i := range objs {
				objs[i] = a.Alloc(0, 64)
			}
			if a.Stats().PeakBytes != grown {
				t.Fatalf("peak grew from %d to %d despite reuse", grown, a.Stats().PeakBytes)
			}
			for _, o := range objs {
				a.Free(0, o)
			}
		})
	}
}

func TestLiveBytesAccounting(t *testing.T) {
	for _, a := range allAllocators(t, 1) {
		t.Run(a.Name(), func(t *testing.T) {
			var objs []*Object
			for i := 0; i < 10; i++ {
				objs = append(objs, a.Alloc(0, 240))
			}
			if got := a.LiveBytes(); got != 2400 {
				t.Fatalf("LiveBytes = %d, want 2400", got)
			}
			for _, o := range objs {
				a.Free(0, o)
			}
			if got := a.LiveBytes(); got != 0 {
				t.Fatalf("LiveBytes after free = %d, want 0", got)
			}
		})
	}
}

func TestLeakGrowsMapped(t *testing.T) {
	// Never freeing forces fresh page mappings: the mechanism behind the
	// naive Token-EBR memory explosion (Fig. 5b).
	for _, a := range allAllocators(t, 1) {
		t.Run(a.Name(), func(t *testing.T) {
			before := a.Stats().PeakBytes
			for i := 0; i < 1000; i++ {
				a.Alloc(0, 64)
			}
			if a.Stats().PeakBytes < before+1000*64 {
				t.Fatalf("peak %d did not grow by leaked bytes", a.Stats().PeakBytes)
			}
		})
	}
}

// TestConcurrentChurn hammers every allocator from many goroutines with
// cross-thread frees (objects allocated by one thread freed by another),
// checking conservation afterwards.
func TestConcurrentChurn(t *testing.T) {
	const threads = 8
	const rounds = 300
	for _, a := range allAllocators(t, threads) {
		t.Run(a.Name(), func(t *testing.T) {
			// hand-off ring: each thread frees objects allocated by its
			// predecessor.
			chans := make([]chan *Object, threads)
			for i := range chans {
				chans[i] = make(chan *Object, rounds)
			}
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					next := chans[(tid+1)%threads]
					for r := 0; r < rounds; r++ {
						next <- a.Alloc(tid, 240)
					}
					close(next)
				}(tid)
			}
			wg.Wait()
			var wg2 sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg2.Add(1)
				go func(tid int) {
					defer wg2.Done()
					for o := range chans[tid] {
						a.Free(tid, o)
					}
				}(tid)
			}
			wg2.Wait()
			st := a.Stats()
			if st.Allocs != threads*rounds || st.Frees != threads*rounds {
				t.Fatalf("allocs=%d frees=%d, want %d each", st.Allocs, st.Frees, threads*rounds)
			}
			if a.LiveBytes() != 0 {
				t.Fatalf("LiveBytes = %d after balanced churn", a.LiveBytes())
			}
		})
	}
}

// TestCarveRun pins what a fresh page run looks like after the carve:
// slabs of 64-byte objects with consecutive IDs continuing the allocator's
// sequence, pushed in ascending order, every object free and carrying the
// class, rounded size and owner it was carved for, and the page, mapped
// bytes and fresh-page accounting charged once per run. Then each model's
// first allocation is checked to come out of such a run, and a default
// 64-object run to cost the host exactly its objects' bytes.
func TestCarveRun(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 64 {
		t.Fatalf("Object is %d bytes; slabObjects is sized for 64", got)
	}
	cfg := smallConfig(2)
	stats := newStatsArena(cfg.Threads)
	var nextID atomic.Uint64
	nextID.Store(100)
	class := SizeToClass(240)
	page := &Page{}
	var dst objList
	carveRun(&cfg, stats, &nextID, 1, class, 5, page, &dst)
	carveRun(&cfg, stats, &nextID, 1, class, 5, page, &dst)

	n := cfg.PageRunObjects
	if dst.len() != 2*n || nextID.Load() != 100+uint64(2*n) {
		t.Fatalf("two runs carved %d objects, nextID %d; want %d and %d", dst.len(), nextID.Load(), 2*n, 100+2*n)
	}
	var prev *Object
	for want := 100 + uint64(2*n); dst.len() > 0; want-- {
		o := dst.pop() // LIFO: descending IDs
		if o.ID != want || o.State() != StateFree || o.Class != class || o.Size != 240 ||
			o.Arena != 5 || o.Page != page || o.OwnerTID != 0 || o.BirthEra != 0 || o.RetireEra != 0 {
			t.Fatalf("carved object %+v, want free id %d class %d size 240 arena 5", o, want, class)
		}
		if prev != nil && (o.ID-101)/slabObjects == (prev.ID-101)/slabObjects &&
			uintptr(unsafe.Pointer(prev))-uintptr(unsafe.Pointer(o)) != 64 {
			t.Fatalf("objects %d and %d are not adjacent in one slab", o.ID, prev.ID)
		}
		prev = o
	}
	st := stats.snapshot()
	if st.FreshPages != 2 || st.MappedBytes != int64(2*n*240) || stats.perThread[1].freshPages != 2 {
		t.Fatalf("accounting after two runs: %+v", st)
	}

	for _, a := range allAllocators(t, 2) {
		t.Run(a.Name(), func(t *testing.T) {
			var got []*Object
			for i := 0; i < n; i++ {
				got = append(got, a.Alloc(1, 240))
			}
			for i, o := range got {
				if o.ID != uint64(n-i) || o.Class != class || o.Size != 240 || o.State() != StateAllocated {
					t.Fatalf("alloc %d returned %+v, want id %d from the first run", i, o, n-i)
				}
				switch m := a.(type) {
				case *JEMalloc:
					if o.Arena != m.homeArena(1) || o.Page != nil {
						t.Fatalf("jemalloc object owner: arena %d page %v", o.Arena, o.Page)
					}
				case *TCMalloc:
					if o.Arena != 0 || o.Page != nil {
						t.Fatalf("tcmalloc object owner: arena %d page %v", o.Arena, o.Page)
					}
				case *MIMalloc:
					if o.Page == nil || o.Page != got[0].Page || o.Page.owner != 1 || o.Page.class != class {
						t.Fatalf("mimalloc object page: %+v", o.Page)
					}
				}
			}
			if st := a.Stats(); st.FreshPages != 1 || st.MappedBytes != int64(n*240) {
				t.Fatalf("stats after draining one run: %+v", st)
			}
		})
	}

	// Host cost of a default run: the objects' own bytes, no size-class or
	// malloc-header rounding on top, in 1/slabObjects of the allocations.
	// TotalAlloc is process-wide and other allocations only add, so the
	// quietest of a few rounds is the measurement.
	cfg = DefaultConfig(1)
	cfg.Cost = Uniform()
	stats = newStatsArena(1)
	const runs = 32
	perRun, mallocs := uint64(1<<62), uint64(1<<62)
	for round := 0; round < 5; round++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			dst = objList{}
			carveRun(&cfg, stats, &nextID, 0, class, 0, nil, &dst)
		}
		runtime.ReadMemStats(&m1)
		perRun = min(perRun, (m1.TotalAlloc-m0.TotalAlloc)/runs)
		mallocs = min(mallocs, (m1.Mallocs-m0.Mallocs)/runs)
	}
	if want := uint64(cfg.PageRunObjects) * 64; perRun != want || mallocs != want/64/slabObjects {
		t.Fatalf("a %d-object run costs the host %d bytes in %d allocations, want %d in %d",
			cfg.PageRunObjects, perRun, mallocs, want, want/64/slabObjects)
	}
}

// Property: any interleaved sequence of allocations and frees conserves
// objects — live count equals allocs minus frees, and no object is ever
// observed in a wrong state.
func TestConservationProperty(t *testing.T) {
	for _, name := range AllocatorNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(ops []bool) bool {
				a, _ := New(name, smallConfig(1))
				var live []*Object
				for _, isAlloc := range ops {
					if isAlloc || len(live) == 0 {
						live = append(live, a.Alloc(0, 64))
					} else {
						o := live[len(live)-1]
						live = live[:len(live)-1]
						a.Free(0, o)
					}
				}
				st := a.Stats()
				return st.Allocs-st.Frees == int64(len(live)) &&
					a.LiveBytes() == int64(len(live))*64
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestRemoteFreeCounted(t *testing.T) {
	cfg := smallConfig(2)
	cfg.TCacheCap = 2 // force immediate flushes
	for _, name := range AllocatorNames() {
		a, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			var objs []*Object
			for i := 0; i < 32; i++ {
				objs = append(objs, a.Alloc(0, 64))
			}
			for _, o := range objs {
				a.Free(1, o) // all frees are remote
			}
			if st := a.Stats(); st.RemoteFrees == 0 {
				t.Fatalf("%s: no remote frees recorded for cross-thread frees", name)
			}
		})
	}
}

func TestStatsFlushesGrowWithBatchedFrees(t *testing.T) {
	cfg := smallConfig(1)
	cfg.TCacheCap = 8
	a := NewJEMalloc(cfg)
	var objs []*Object
	for i := 0; i < 256; i++ {
		objs = append(objs, a.Alloc(0, 64))
	}
	for _, o := range objs {
		a.Free(0, o)
	}
	st := a.Stats()
	if st.Flushes == 0 {
		t.Fatal("expected tcache flushes for batched frees")
	}
	if st.FlushNanos <= 0 || st.FreeNanos < st.FlushNanos {
		t.Fatalf("timing accounting inconsistent: %+v", st)
	}
}

func TestPctOf(t *testing.T) {
	if got := PctOf(500, 1000, 1); got != 50 {
		t.Fatalf("PctOf = %v, want 50", got)
	}
	if got := PctOf(500, 0, 4); got != 0 {
		t.Fatalf("PctOf with zero wall = %v, want 0", got)
	}
}

func TestCostModelSocketAndTouch(t *testing.T) {
	cm := Intel192()
	cases := []struct {
		tid, socket int
	}{{0, 0}, {47, 0}, {48, 1}, {95, 1}, {191, 3}}
	for _, c := range cases {
		if got := cm.Socket(c.tid); got != c.socket {
			t.Errorf("Socket(%d) = %d, want %d", c.tid, got, c.socket)
		}
	}
	local := cm.TouchCost(0, 0)
	remote := cm.TouchCost(0, 3)
	if remote != local*cm.RemoteFactor {
		t.Errorf("remote touch %d, want %d", remote, local*cm.RemoteFactor)
	}
	uni := Uniform()
	if uni.TouchCost(0, 0) != uni.LocalTouch {
		t.Error("uniform model local touch mismatch")
	}
}

func TestConfigValidation(t *testing.T) {
	good := smallConfig(1)
	bad := []Config{
		{},
		{Threads: 1},
		{Threads: 1, TCacheCap: 4, FillCount: 4, PageRunObjects: 4, FlushFraction: 1.5},
		{Threads: 1, TCacheCap: 4, FillCount: 4, PageRunObjects: 4, FlushFraction: 2},
		{Threads: 1, TCacheCap: 4, FillCount: 4, PageRunObjects: 4, FlushFraction: 0.5, ArenasPerThread: -1},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d: Validate accepted %+v", i, cfg)
		}
		// New reports the error; the constructors keep the panic.
		for _, name := range AllocatorNames() {
			if a, err := New(name, cfg); err == nil {
				t.Errorf("config %d: New(%q) returned %v and no error", i, name, a)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: NewJEMalloc did not panic", i)
				}
			}()
			NewJEMalloc(cfg)
		}()
	}
	// A zero ArenasPerThread takes DefaultConfig's multiplier.
	good.ArenasPerThread = 0
	if err := good.Validate(); err != nil {
		t.Fatalf("zero ArenasPerThread rejected: %v", err)
	}
	if got, want := len(NewJEMalloc(good).arenas), DefaultConfig(1).ArenasPerThread; got != want {
		t.Errorf("zero ArenasPerThread built %d arenas, want %d", got, want)
	}
}

func TestObjListSpliceOrder(t *testing.T) {
	var a, b objList
	mk := func(id uint64) *Object { return &Object{ID: id} }
	a.push(mk(1))
	a.push(mk(2))
	b.push(mk(3))
	a.pushAll(&b)
	if b.len() != 0 {
		t.Fatal("source list not emptied")
	}
	var ids []uint64
	for o := a.pop(); o != nil; o = a.pop() {
		ids = append(ids, o.ID)
	}
	if fmt.Sprint(ids) != "[3 2 1]" {
		t.Fatalf("splice order = %v", ids)
	}
}
