package simalloc

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Lock-contention model.
//
// The paper's remote-batch-free collapse is a lock-convoy phenomenon: at an
// epoch boundary many threads flush their caches at the same moment, and
// every flush holds each destination bin's lock for time proportional to
// the whole flushed batch. On the simulation host, goroutine critical
// sections are short relative to a scheduler quantum and effectively never
// overlap, so sync.Mutex alone cannot reproduce the convoy.
//
// binClock adds a virtual-queueing model on top of each bin mutex: the bin
// tracks the wall-clock instant until which it is (virtually) busy. An
// acquirer reserves [start, start+hold) where start is max(now, busyUntil),
// then burns its queueing delay (start - now) as real spin work, which the
// stats record as lock time — the analogue of je_malloc_mutex_lock_slow.
// Reservations made by many threads within a short wall window therefore
// stack up exactly like a contended mutex queue, independent of how many
// physical cores the host has.
type binClock struct {
	until atomic.Int64 // wall ns until which the bin is virtually busy
}

// maxQueueNs caps a single queueing delay; a cap keeps one pathological
// pile-up from freezing a thread for the rest of a trial.
const maxQueueNs = 20 * int64(time.Millisecond)

// reserve books holdNs of bin time and returns the queueing delay the
// caller must burn before proceeding. Timestamps are clock.Now values; only
// differences between them matter, so the scale's origin is irrelevant.
func (b *binClock) reserve(holdNs int64) (queueNs int64) {
	now := clock.Now()
	for {
		cur := b.until.Load()
		start := now
		if cur > start {
			start = cur
		}
		if start-now > maxQueueNs {
			start = now + maxQueueNs
		}
		if b.until.CompareAndSwap(cur, start+holdNs) {
			return start - now
		}
	}
}

// nsPerSpinUnit converts spin-work units to nanoseconds; calibrated once at
// package init so virtual hold times track the real cost of the work done
// under the lock.
var nsPerSpinUnit int64 = 1

func init() {
	const probe = 1 << 16
	t0 := clock.Now()
	spinWork(0, probe)
	per := (clock.Now() - t0) / probe
	if per < 1 {
		per = 1
	}
	if per > 16 {
		per = 16
	}
	nsPerSpinUnit = per
}

// lockedList is a shared free list — a jemalloc arena bin, a tcmalloc
// central list — behind its mutex and its virtual-contention clock.
type lockedList struct {
	mu    sync.Mutex
	clock binClock
	list  objList
}

// acquire is the slow-path prologue of every refill and flush: reserve
// holdNs of the list's virtual time, burn the queueing delay that returns as
// lock wait, touch the list's line, and take the mutex under a stamp pair.
// Every host clock read is charged to ts. The caller unlocks l.mu.
func (l *lockedList) acquire(tid int, ts *threadStats, touch int, holdNs int64) {
	burned, reads := burnQueue(tid, l.clock.reserve(holdNs))
	ts.lockNanos += burned
	ts.clockReads += reads + 1 // +1: reserve's own stamp
	spinWork(tid, touch)
	l0 := clock.Now()
	l.mu.Lock()
	ts.lockNanos += clock.Now() - l0
	ts.clockReads += 2
}

// burnQueue spends the queueing delay as spin work attributable to tid and
// returns the time actually burned (recorded as lock-wait time) plus the
// number of host clock reads it took: one per spin round plus the initial
// stamp, so callers can charge the exact measurement tax to their stats.
func burnQueue(tid int, queueNs int64) (burnedNs, clockReads int64) {
	if queueNs <= 0 {
		return 0, 0
	}
	t0 := clock.Now()
	now := t0
	reads := int64(1)
	for now-t0 < queueNs {
		spinWork(tid, 64)
		now = clock.Now()
		reads++
	}
	return now - t0, reads
}
