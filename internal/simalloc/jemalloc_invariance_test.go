package simalloc

import (
	"testing"
	"time"
)

// This file pins the modeled-cost invariance of the O(n) grouped flush: the
// rewrite changed only *host* work, so every modeled quantity — flush count,
// remote-free count, fresh pages, mapped bytes, and the virtual lock-hold
// reservation sequence — must be bit-identical to the original
// scan-per-round structure on the same operation stream.
//
// flushScanPerRound and freeViaReference reimplement the pre-grouping code
// verbatim (including its time.Now stamping), serving both as the invariance
// reference and as the "before" side of the flush benchmarks.

// flushScanPerRound is the original O(batch²) flush: per round, rescan the
// whole batch for the first unreturned object and return its arena's
// objects.
func flushScanPerRound(a *JEMalloc, tid int, class uint8, tc *objList, scratch []*Object) []*Object {
	f0 := time.Now()
	ts := &a.stats.perThread[tid]
	ts.flushes++

	n := int(float64(a.cfg.TCacheCap) * a.cfg.FlushFraction)
	if n > tc.len() {
		n = tc.len()
	}
	batch := scratch[:0]
	for i := 0; i < n; i++ {
		batch = append(batch, tc.pop())
	}

	myArena := a.homeArena(tid)
	for done := 0; done < len(batch); {
		var first *Object
		matched := 0
		for _, o := range batch {
			if o == nil {
				continue
			}
			if first == nil {
				first = o
			}
			if o.Arena == first.Arena {
				matched++
			}
		}
		arena := &a.arenas[first.Arena]
		bin := &arena.bins[class]

		touch := a.cfg.Cost.TouchCost(tid, arena.homeSocket)
		perObj := a.cfg.Cost.PerObjectFree
		if myArena != first.Arena {
			perObj *= a.cfg.Cost.RemoteFactor
		}
		hold := int64(touch+matched*perObj+len(batch)*2) * nsPerSpinUnit
		if a.flushHoldProbe != nil {
			a.flushHoldProbe(first.Arena, hold)
		}
		burned, _ := burnQueue(tid, bin.clock.reserve(hold))
		ts.lockNanos += burned

		spinWork(tid, touch)
		l0 := time.Now()
		bin.mu.Lock()
		ts.lockNanos += time.Since(l0).Nanoseconds()
		for i, o := range batch {
			if o == nil || o.Arena != first.Arena {
				continue
			}
			spinWork(tid, perObj)
			bin.list.push(o)
			batch[i] = nil
			done++
			if o.Arena != myArena {
				ts.remoteFrees++
			}
		}
		bin.mu.Unlock()
	}
	ts.flushNanos += time.Since(f0).Nanoseconds()
	return batch[:0]
}

// freeViaReference mimics the original JEMalloc.Free, flushing with the
// scan-per-round reference.
func freeViaReference(a *JEMalloc, tid int, o *Object, scratch []*Object) []*Object {
	t0 := time.Now()
	ts := &a.stats.perThread[tid]
	o.markFree()
	tc := &a.caches[tid].bins[o.Class]
	tc.push(o)
	ts.frees++
	ts.freeBytes += int64(o.Size)
	if tc.len() > a.cfg.TCacheCap {
		scratch = flushScanPerRound(a, tid, o.Class, tc, scratch)
	}
	ts.freeNanos += time.Since(t0).Nanoseconds()
	return scratch
}

// invRNG is the xorshift generator the bench harness uses, duplicated here
// so the driver below is a fixed-seed paper-style churn.
type invRNG struct{ s uint64 }

func (r *invRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// holdEvent is one virtual lock-hold reservation, in spin units so values
// are host-independent (holds are units × the host-calibrated nsPerSpinUnit).
type holdEvent struct {
	arena int32
	units int64
}

// driveChurn replays a fixed-seed 50% alloc / 50% free stream (the paper
// scenario's mix) across several tids with cross-thread frees, routing every
// free through the supplied function. The RNG consumption is identical for
// every run, so two allocators driven with the same seed see bit-identical
// operation streams.
func driveChurn(a *JEMalloc, threads int, free func(tid int, o *Object)) {
	r := invRNG{s: 42}
	var live []*Object
	const ops = 30000
	for i := 0; i < ops; i++ {
		if len(live) < 64 || r.next()&1 == 0 {
			tid := int(r.next() % uint64(threads))
			live = append(live, a.Alloc(tid, 64))
		} else {
			idx := int(r.next() % uint64(len(live)))
			o := live[idx]
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
			// Free from a random thread: roughly (threads-1)/threads of
			// frees are remote, the paper's RBF-triggering pattern.
			free(int(r.next()%uint64(threads)), o)
		}
	}
	for _, o := range live {
		free(0, o)
	}
}

// TestFlushGroupingInvariance drives the grouped flush and the
// scan-per-round reference with the same fixed-seed stream and requires
// identical modeled statistics and identical (arena, hold) reservation
// sequences. Golden counts below pin the stream itself, so the test also
// catches accidental changes to the modeled behaviour across PRs.
func TestFlushGroupingInvariance(t *testing.T) {
	const threads = 4
	run := func(reference bool) (Stats, []holdEvent) {
		a := NewJEMalloc(smallConfig(threads))
		var holds []holdEvent
		a.flushHoldProbe = func(arena int32, holdNs int64) {
			holds = append(holds, holdEvent{arena, holdNs / nsPerSpinUnit})
		}
		if reference {
			var scratch []*Object
			driveChurn(a, threads, func(tid int, o *Object) {
				scratch = freeViaReference(a, tid, o, scratch)
			})
		} else {
			driveChurn(a, threads, a.Free)
		}
		return a.Stats(), holds
	}

	gotStats, gotHolds := run(false)
	refStats, refHolds := run(true)

	// Modeled counters must match the reference exactly. Host-measured
	// *Nanos fields are excluded: they are wall-clock noise by design.
	type modeled struct {
		Frees, Allocs, RemoteFrees, Flushes, FreshPages, Mapped, Peak int64
	}
	m := func(s Stats) modeled {
		return modeled{s.Frees, s.Allocs, s.RemoteFrees, s.Flushes, s.FreshPages, s.MappedBytes, s.PeakBytes}
	}
	if m(gotStats) != m(refStats) {
		t.Fatalf("modeled stats diverged:\n grouped  %+v\n reference %+v", m(gotStats), m(refStats))
	}

	if len(gotHolds) != len(refHolds) {
		t.Fatalf("reservation count diverged: grouped %d, reference %d", len(gotHolds), len(refHolds))
	}
	for i := range gotHolds {
		if gotHolds[i] != refHolds[i] {
			t.Fatalf("reservation %d diverged: grouped %+v, reference %+v", i, gotHolds[i], refHolds[i])
		}
	}

	// Golden pins for the fixed seed (host-independent modeled counts).
	const (
		wantFlushes     = 169
		wantRemoteFrees = 1454
		wantFreshPages  = 57
	)
	if gotStats.Flushes != wantFlushes || gotStats.RemoteFrees != wantRemoteFrees || gotStats.FreshPages != wantFreshPages {
		t.Fatalf("golden drift: flushes=%d remoteFrees=%d freshPages=%d, want %d/%d/%d",
			gotStats.Flushes, gotStats.RemoteFrees, gotStats.FreshPages,
			wantFlushes, wantRemoteFrees, wantFreshPages)
	}
}

// benchFlushConfig isolates host bookkeeping: every modeled cost is zero, so
// the benchmark measures the flush's own data-structure work, not spin work
// that is identical in both variants. The cache sizing follows the paper's
// Experiment-2 regime — large limbo batches flushed across many arenas —
// where the scan-per-round structure's rescans dominate.
func benchFlushConfig(threads int) Config {
	return Config{
		Threads:        threads,
		Cost:           CostModel{ThreadsPerSocket: 1 << 30, Sockets: 1, RemoteFactor: 1},
		TCacheCap:      2048,
		FlushFraction:  0.75,
		FillCount:      64,
		PageRunObjects: 64,
	}
}

// benchmarkFlush allocates across 64 arenas and frees everything from tid 0,
// so each flush batch mixes 64 destination arenas — the remote-batch-free
// shape the paper studies. Only the free path (stamping + flush) is timed;
// the refill phase that hands the objects back out is excluded.
func benchmarkFlush(b *testing.B, grouped bool) {
	const threads = 64
	cfg := benchFlushConfig(threads)
	k := 4 * cfg.TCacheCap
	a := NewJEMalloc(cfg)
	objs := make([]*Object, 0, k)
	var scratch []*Object
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < k; j++ {
			objs = append(objs, a.Alloc(j%threads, 64))
		}
		b.StartTimer()
		if grouped {
			for _, o := range objs {
				a.Free(0, o)
			}
		} else {
			for _, o := range objs {
				scratch = freeViaReference(a, 0, o, scratch)
			}
		}
		objs = objs[:0]
	}
	b.ReportMetric(float64(b.N)*float64(k)/b.Elapsed().Seconds(), "frees/s")
}

// BenchmarkFlushGrouped is the shipped O(n) flush path.
func BenchmarkFlushGrouped(b *testing.B) { benchmarkFlush(b, true) }

// BenchmarkFlushScanPerRound is the pre-rewrite O(batch²) reference; the
// ratio of the two frees/s metrics is the host-side speedup of the flush.
func BenchmarkFlushScanPerRound(b *testing.B) { benchmarkFlush(b, false) }

func BenchmarkAllocFreeCycle(b *testing.B) {
	for _, name := range AllocatorNames() {
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(1)
			cfg.Cost = Uniform()
			a, err := New(name, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Free(0, a.Alloc(0, 64))
			}
		})
	}
}
