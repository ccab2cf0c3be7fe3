package simalloc

import "sync/atomic"

// Calibrated busy work standing in for memory-system latency. The simulated
// allocators charge spin work instead of sleeping so that (a) the work scales
// the same way real bookkeeping does when performed while holding a lock,
// and (b) the Go scheduler sees genuinely busy goroutines, reproducing the
// convoy effects the paper observes.

// spinSink is where spinWork would publish a result of zero. It never does
// (see below), so no two threads, and no two trials running in one process,
// ever meet on it.
var spinSink atomic.Uint64

// spinWork performs n units of ALU work attributable to simulated thread
// tid. The mixing keeps the loop non-collapsible by the compiler, and the
// result has to be computed because the store depends on it. A xorshift
// step maps nonzero to nonzero and the seed is nonzero for every tid a trial
// can use, so the store never runs: the burn ends without a write that
// another core could be waiting on.
func spinWork(tid, n int) {
	var x uint64 = uint64(tid)*0x9e3779b97f4a7c15 + 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 {
		spinSink.Store(x)
	}
}
