package simalloc

import "repro/internal/clock"

// The bounded per-thread cache is the paper's mechanism: it absorbs frees
// until a bin overflows, and then a batch is flushed to shared bins under
// their locks. jemalloc and tcmalloc share this front end; each supplies
// only a backend that says where a miss refills from and where a flush goes.

// backend is a thread-cache model's shared side. The front end calls it
// only on a slow path, so the cache-hit path makes no dynamic call.
type backend interface {
	// refill moves a batch of class objects into dst for tid, mapping a
	// fresh page run when the shared pool is empty. dst is empty.
	refill(tid int, class uint8, dst *objList)
	// flush returns the first n objects of src, all of class, to the
	// shared pool on behalf of tid.
	flush(tid int, class uint8, src *objList, n int)
}

// tcacheModel is the thread-cache front end over a backend.
type tcacheModel struct {
	model
	caches []tcache
	be     backend
}

// tcache is one thread's cache: a bin per size class.
type tcache struct {
	bins [NumSizeClasses]objList
	_    [8]int64 // keep neighbouring threads' bins off each other's lines
}

func (m *tcacheModel) init(cfg Config, be backend) {
	m.model.init(cfg)
	m.caches = make([]tcache, m.cfg.Threads)
	m.be = be
}

// Alloc serves tid from its cache, refilling from the backend on a miss.
// Only the refill slow path is clock-stamped: a cache hit is a pop plus
// counter bumps, so stamping it would measure mostly the stamps themselves.
func (m *tcacheModel) Alloc(tid int, size int) *Object {
	ts := &m.stats.perThread[tid]
	class := SizeToClass(size)
	bin := &m.caches[tid].bins[class]
	o := bin.pop()
	if o == nil {
		t0 := clock.Now()
		m.be.refill(tid, class, bin)
		o = bin.pop()
		ts.allocNanos += clock.Now() - t0
		ts.clockReads += 2
	}
	o.markAllocated()
	o.OwnerTID = int32(tid)
	ts.allocs++
	ts.allocBytes += int64(o.Size)
	return o
}

// Free pushes o into tid's cache and, when the bin overflows, flushes
// FlushFraction of it (je_tcache_bin_flush_small, tcmalloc's
// ReleaseToCentralCache). Only the flush slow path is clock-stamped, and
// the observer sees those stamps; a cache-absorbed free reads no clock.
func (m *tcacheModel) Free(tid int, o *Object) {
	ts := &m.stats.perThread[tid]
	o.markFree()
	bin := &m.caches[tid].bins[o.Class]
	bin.push(o)
	ts.frees++
	ts.freeBytes += int64(o.Size)
	if bin.len() > m.cfg.TCacheCap {
		n := min(int(float64(m.cfg.TCacheCap)*m.cfg.FlushFraction), bin.len())
		t0 := clock.Now()
		m.flushTimed(tid, o.Class, bin, n)
		end := clock.Now()
		ts.freeNanos += end - t0
		ts.clockReads += 2
		if m.freeObs != nil {
			m.freeObs(tid, t0, end)
		}
	}
}

// FlushThreadCache tears down tid's cache with modeled cost: every
// non-empty bin is flushed whole through the backend, as on an overflow
// (jemalloc's tcache_destroy, tcmalloc's ThreadCache teardown). A departing
// thread pays it once on Leave.
func (m *tcacheModel) FlushThreadCache(tid int) {
	ts := &m.stats.perThread[tid]
	for class := range m.caches[tid].bins {
		bin := &m.caches[tid].bins[class]
		if bin.len() == 0 {
			continue
		}
		t0 := clock.Now()
		m.flushTimed(tid, uint8(class), bin, bin.len())
		ts.freeNanos += clock.Now() - t0
		ts.clockReads += 2
	}
}

// flushTimed counts one flush and charges the backend's work to flushNanos.
func (m *tcacheModel) flushTimed(tid int, class uint8, bin *objList, n int) {
	f0 := clock.Now()
	ts := &m.stats.perThread[tid]
	ts.flushes++
	m.be.flush(tid, class, bin, n)
	ts.flushNanos += clock.Now() - f0
	ts.clockReads += 2 // the f0/end pair
}
