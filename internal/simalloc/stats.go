package simalloc

import (
	"runtime"
	"sync/atomic"
	"time"
)

// threadStats accumulates one simulated thread's allocator time. Fields are
// plain integers because each instance is written by exactly one goroutine;
// Snapshot reads them with atomic loads, which is adequate for monitoring
// (the paper's perf percentages are likewise sampled).
type threadStats struct {
	freeNanos  int64 // time inside Free slow paths (flush/spill/remote), stamped around them
	flushNanos int64 // time inside cache-flush slow paths (je_tcache_bin_flush_small analogue)
	lockNanos  int64 // time blocked acquiring bin/central locks (je_malloc_mutex_lock_slow analogue)
	allocNanos int64 // time inside Alloc slow paths (refill/collect/fresh page)

	frees       int64 // objects passed to Free
	allocs      int64 // objects returned from Alloc
	remoteFrees int64 // objects returned to a bin not owned by the freeing thread
	flushes     int64 // flush slow-path invocations
	freshPages  int64 // page runs mapped from the simulated OS
	clockReads  int64 // host clock stamps taken by this thread's allocator calls

	allocBytes int64 // bytes handed to the application
	freeBytes  int64 // bytes returned by the application

	_ [4]int64 // pad to reduce false sharing between adjacent threads
}

// Stats is an aggregated snapshot of allocator activity across all threads.
type Stats struct {
	FreeNanos   int64
	FlushNanos  int64
	LockNanos   int64
	AllocNanos  int64
	Frees       int64
	Allocs      int64
	RemoteFrees int64
	Flushes     int64
	FreshPages  int64
	// ClockReads counts the host clock stamps the allocator actually took —
	// all on slow paths (refill, flush, remote free, lock waits); tcache-hit
	// allocs and frees take none. The bench harness charges these, times the
	// calibrated read cost, as measurement overhead (TrialResult.PctHost-
	// Overhead).
	ClockReads int64

	MappedBytes int64
	PeakBytes   int64
}

// PctOf expresses a duration as a percentage of total available CPU time,
// matching the paper's perf cycle percentages. Simulated threads are
// goroutines, so the available CPU is the wall duration times the effective
// parallelism — min(threads, GOMAXPROCS) — not the simulated thread count.
func PctOf(nanos int64, wall time.Duration, threads int) float64 {
	par := runtime.GOMAXPROCS(0)
	if threads < par {
		par = threads
	}
	total := float64(wall.Nanoseconds()) * float64(par)
	if total <= 0 {
		return 0
	}
	return 100 * float64(nanos) / total
}

// statsArena owns per-thread stats plus byte accounting; every allocator
// model holds one.
type statsArena struct {
	perThread []threadStats
	mapped    atomic.Int64
	peak      atomic.Int64
}

func newStatsArena(threads int) *statsArena {
	return &statsArena{perThread: make([]threadStats, threads)}
}

func (s *statsArena) addMapped(bytes int64) {
	m := s.mapped.Add(bytes)
	for {
		p := s.peak.Load()
		if m <= p || s.peak.CompareAndSwap(p, m) {
			return
		}
	}
}

func (s *statsArena) snapshot() Stats {
	var out Stats
	for i := range s.perThread {
		t := &s.perThread[i]
		out.FreeNanos += atomic.LoadInt64(&t.freeNanos)
		out.FlushNanos += atomic.LoadInt64(&t.flushNanos)
		out.LockNanos += atomic.LoadInt64(&t.lockNanos)
		out.AllocNanos += atomic.LoadInt64(&t.allocNanos)
		out.Frees += atomic.LoadInt64(&t.frees)
		out.Allocs += atomic.LoadInt64(&t.allocs)
		out.RemoteFrees += atomic.LoadInt64(&t.remoteFrees)
		out.Flushes += atomic.LoadInt64(&t.flushes)
		out.FreshPages += atomic.LoadInt64(&t.freshPages)
		out.ClockReads += atomic.LoadInt64(&t.clockReads)
	}
	out.MappedBytes = s.mapped.Load()
	out.PeakBytes = s.peak.Load()
	return out
}
