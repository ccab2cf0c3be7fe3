package smr

import (
	"sync"
	"testing"
)

// TestPeakLimboExactSingleThread: with one thread Stats.PeakLimbo is the
// true high-water. The level rises only at a retire, so the reference is the
// highest "retires so far minus frees the allocator has seen", taken as each
// retire goes in; batched publication must not lose any of them.
func TestPeakLimboExactSingleThread(t *testing.T) {
	for _, name := range []string{"debra", "token_af", "hp"} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(1)
			r, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ref int64
			// 1000 is not a multiple of limboPublishEvery, so the run ends
			// with retires pending.
			for i := 0; i < 1000; i++ {
				r.BeginOp(0)
				o := cfg.Alloc.Alloc(0, 64)
				r.OnAlloc(0, o)
				r.Protect(0, 0, o)
				ref = max(ref, int64(i+1)-cfg.Alloc.Stats().Frees)
				r.Retire(0, o)
				r.EndOp(0)
			}
			st := r.Stats()
			if st.Freed == 0 {
				t.Fatal("nothing was freed during the run; the reference saw no peak followed by a fall")
			}
			if st.PeakLimbo != ref {
				t.Errorf("PeakLimbo = %d before Drain, reference high-water %d", st.PeakLimbo, ref)
			}
			r.Drain(0)
			if st := r.Stats(); st.PeakLimbo != ref || st.Limbo != 0 {
				t.Errorf("after Drain PeakLimbo = %d, Limbo = %d; want %d and 0", st.PeakLimbo, st.Limbo, ref)
			}
		})
	}
}

// TestPeakLimboBoundConcurrent: eight goroutines retire perThread objects
// each, every one ending with limboPublishEvery-1 retires unpublished, and
// nothing is freed meanwhile, so the true peak is exactly 8 × perThread at
// the barrier. Then they drain at once. Each publishes its own pending
// retires before its frees come off, so the recorded peak misses at most
// what the other seven still held back, and never reads high.
func TestPeakLimboBoundConcurrent(t *testing.T) {
	const threads = 8
	const perThread = 10*limboPublishEvery - 1
	for _, name := range []string{"debra", "token_af", "hp"} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(threads)
			cfg.BatchSize = 1 << 20 // hp: no scan before the barrier
			r, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			each := func(f func(tid int)) {
				var wg sync.WaitGroup
				for tid := 0; tid < threads; tid++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						f(tid)
					}()
				}
				wg.Wait()
			}
			// Bare retires: without BeginOp no epoch turns and no token
			// moves, so no scheme here frees anything yet.
			each(func(tid int) {
				for i := 0; i < perThread; i++ {
					o := cfg.Alloc.Alloc(tid, 64)
					r.OnAlloc(tid, o)
					r.Retire(tid, o)
				}
			})
			const truePeak = threads * perThread
			if st := r.Stats(); st.Freed != 0 || st.PeakLimbo != truePeak {
				t.Fatalf("at the barrier Freed = %d, PeakLimbo = %d; want 0 and %d (Stats counts pending retires)", st.Freed, st.PeakLimbo, truePeak)
			}
			each(r.Drain)
			st := r.Stats()
			if st.Limbo != 0 {
				t.Fatalf("Limbo = %d after every thread drained", st.Limbo)
			}
			if lo := int64(truePeak - (threads-1)*limboPublishEvery); st.PeakLimbo < lo || st.PeakLimbo > truePeak {
				t.Errorf("PeakLimbo = %d, want within [%d, %d]", st.PeakLimbo, lo, truePeak)
			}
		})
	}
}

// TestLeavePublishesPendingRetires: a departing thread's unpublished retires
// reach the shared count before its slot is vacated, because whoever adopts
// the objects is the one who will subtract them.
func TestLeavePublishesPendingRetires(t *testing.T) {
	cfg := testConfig(2)
	d := mustNew(t, "debra", cfg).(*DEBRA)
	const n = limboPublishEvery - 1
	for i := 0; i < n; i++ {
		o := cfg.Alloc.Alloc(1, 64)
		d.Retire(1, o)
	}
	if got := d.e.limboNow.v.Load(); got != 0 {
		t.Fatalf("limboNow = %d after %d retires, want 0 (below the publication step)", got, n)
	}
	d.Leave(1)
	if got := d.e.limboNow.v.Load(); got != n {
		t.Errorf("limboNow = %d after Leave, want %d", got, n)
	}
	d.Drain(0)
	if st := d.Stats(); st.Limbo != 0 || st.PeakLimbo != n || d.e.limboNow.v.Load() != 0 {
		t.Errorf("after the survivor drained: Limbo = %d, PeakLimbo = %d, limboNow = %d; want 0, %d, 0",
			st.Limbo, st.PeakLimbo, d.e.limboNow.v.Load(), n)
	}
}
