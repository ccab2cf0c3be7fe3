package smr

import (
	"repro/internal/clock"
	"repro/internal/simalloc"
)

// A freer is the policy for releasing a batch of limbo objects that a
// reclaimer has determined safe. The paper's thesis is that this policy —
// not the grace-period detection — decides performance on jemalloc-like
// allocators:
//
//   - batch (queues == nil) frees the whole batch immediately (the
//     traditional "optimization", which triggers remote batch frees), and
//   - amortized free (AF) appends the batch to a per-thread freeable list and
//     releases rate (DrainRate) objects per subsequent operation — the
//     paper's fix. Freeing gradually lets the allocator's thread cache absorb
//     and recycle the objects instead of overflowing into remote batch frees.
//
// The policy is a two-field struct inside core, not an interface: the
// per-operation pump is a nil check the compiler inlines into each scheme's
// EndOp.
type freer struct {
	rate   int
	queues []afQueue
}

// freeBatch releases or queues a safe-to-free batch on behalf of tid.
// Ownership of the slice contents transfers; the slice itself may be reused
// by the caller afterwards.
func (c *core) freeBatch(tid int, batch []*simalloc.Object) {
	if c.f.queues == nil {
		c.freeNow(tid, batch)
	} else if len(batch) != 0 {
		c.f.queues[tid].push(batch)
	}
}

// freeNow frees a whole batch synchronously, recording the batch as one
// timeline event and any individual high-latency free call separately.
func (c *core) freeNow(tid int, batch []*simalloc.Object) {
	if len(batch) == 0 {
		return
	}
	e := &c.e
	if e.rec == nil {
		for _, o := range batch {
			e.alloc.Free(tid, o)
		}
		e.noteFree(tid, int64(len(batch)))
		return
	}
	// Recorded path: the free loop is identical to the unrecorded one. Long
	// free calls reach the staging ring through the allocator's own slow-path
	// stamps (the free observer), so the only extra clock reads are the two
	// batch-envelope stamps, counted by StageBatchFree.
	t0 := clock.Now()
	for _, o := range batch {
		e.alloc.Free(tid, o)
	}
	end := clock.Now()
	e.noteFree(tid, int64(len(batch)))
	e.rec.StageBatchFree(tid, t0, end, int64(len(batch)))
}

// afQueue is one thread's freeable list. A plain FIFO ring over a slice; the
// owner is the only accessor.
type afQueue struct {
	objs []*simalloc.Object
	head int
	_    [4]int64
}

func (q *afQueue) push(batch []*simalloc.Object) {
	switch {
	case q.head == len(q.objs):
		// Drained (pop already nilled every slot): start over at the front,
		// or a queue that never holds more than a batch still grows behind
		// its consumed prefix.
		q.objs, q.head = q.objs[:0], 0
	case q.head > len(q.objs)/2 && q.head > 1024:
		// Compact the consumed prefix when it dominates the slice.
		n := copy(q.objs, q.objs[q.head:])
		// Nil the vacated tail: without this the backing array keeps
		// referencing objects that were already handed to the allocator,
		// pinning them for the host GC as long as the queue lives.
		clear(q.objs[n:])
		q.objs = q.objs[:n]
		q.head = 0
	}
	q.objs = append(q.objs, batch...)
}

func (q *afQueue) pop() *simalloc.Object {
	if q.head >= len(q.objs) {
		return nil
	}
	o := q.objs[q.head]
	q.objs[q.head] = nil
	q.head++
	return o
}

func (q *afQueue) len() int { return len(q.objs) - q.head }

// pump is called once per data-structure operation.
func (c *core) pump(tid int) {
	if c.f.queues != nil {
		c.freeQueued(tid, c.f.rate)
	}
}

// freeQueued frees up to limit objects from tid's freeable list. Recorded
// and unrecorded trials run the same loop with zero clock stamps: an
// amortized free has no batch envelope, and any individual call long enough
// to matter hits an allocator slow path whose existing stamps feed the
// recorder via the free observer.
func (c *core) freeQueued(tid, limit int) {
	e := &c.e
	q := &c.f.queues[tid]
	n := int64(0)
	for i := 0; i < limit; i++ {
		o := q.pop()
		if o == nil {
			break
		}
		e.alloc.Free(tid, o)
		n++
	}
	if n > 0 {
		e.noteFree(tid, n)
	}
}

// drainQueued releases everything still queued for tid.
func (c *core) drainQueued(tid int) {
	if c.f.queues == nil {
		return
	}
	// Teardown frees are not timeline events; mute the free observer.
	c.e.rec.MuteFrees(tid)
	c.freeQueued(tid, c.f.queues[tid].len())
	c.e.rec.UnmuteFrees(tid)
}

// orphanQueued hands tid's queued-but-unfreed objects to the registry's
// orphan queue (participant departure). The objects were already
// grace-proven safe, but re-homing them through a survivor's limbo — and
// thus a second grace period — keeps every adoption path uniform and is
// merely conservative.
func (c *core) orphanQueued(tid int) {
	if c.f.queues == nil || c.f.queues[tid].len() == 0 {
		return
	}
	q := &c.f.queues[tid]
	batch := make([]*simalloc.Object, q.len())
	copy(batch, q.objs[q.head:])
	clear(q.objs)
	q.objs = q.objs[:0]
	q.head = 0
	c.e.reg.orphan(batch)
}
