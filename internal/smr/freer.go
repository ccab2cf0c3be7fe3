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
//   - batchFreer frees the whole batch immediately (the traditional
//     "optimization", which triggers remote batch frees), and
//   - amortizedFreer queues the batch on a thread-local freeable list and
//     releases DrainRate objects per subsequent operation (the paper's fix).
type freer interface {
	// freeBatch releases or queues a safe-to-free batch on behalf of tid.
	// Ownership of the slice contents transfers; the slice itself may be
	// reused by the caller afterwards.
	freeBatch(tid int, batch []*simalloc.Object)
	// pump is called once per data-structure operation.
	pump(tid int)
	// drainAll releases everything still queued for tid.
	drainAll(tid int)
	// orphanAll hands tid's queued-but-unfreed objects to the registry's
	// orphan queue (participant departure). The objects were already
	// grace-proven safe, but re-homing them through a survivor's limbo —
	// and thus a second grace period — keeps every adoption path uniform
	// and is merely conservative.
	orphanAll(reg *participants, tid int)
	// queued reports tid's freeable-list length.
	queued(tid int) int
}

// batchFreer frees whole batches immediately, recording the batch as one
// timeline event and any individual high-latency free call separately.
type batchFreer struct {
	e *env
}

func newBatchFreer(e *env) *batchFreer { return &batchFreer{e: e} }

func (b *batchFreer) freeBatch(tid int, batch []*simalloc.Object) {
	if len(batch) == 0 {
		return
	}
	e := b.e
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

func (b *batchFreer) pump(int)                     {}
func (b *batchFreer) drainAll(int)                 {}
func (b *batchFreer) orphanAll(*participants, int) {}
func (b *batchFreer) queued(int) int               { return 0 }

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

// amortizedFreer implements the paper's amortized free (AF): safe batches
// are appended to a per-thread freeable list, and each operation frees
// DrainRate objects from the list. Freeing gradually lets the allocator's
// thread cache absorb and recycle the objects instead of overflowing into
// remote batch frees.
type amortizedFreer struct {
	e      *env
	rate   int
	queues []afQueue
}

func newAmortizedFreer(e *env) *amortizedFreer {
	return &amortizedFreer{
		e:      e,
		rate:   e.cfg.DrainRate,
		queues: make([]afQueue, e.cfg.Threads),
	}
}

func (a *amortizedFreer) freeBatch(tid int, batch []*simalloc.Object) {
	if len(batch) == 0 {
		return
	}
	a.queues[tid].push(batch)
}

// pump frees up to DrainRate queued objects. Recorded and unrecorded trials
// run the same loop with zero clock stamps: an amortized free has no batch
// envelope, and any individual call long enough to matter hits an allocator
// slow path whose existing stamps feed the recorder via the free observer.
func (a *amortizedFreer) pump(tid int) {
	e := a.e
	q := &a.queues[tid]
	n := int64(0)
	for i := 0; i < a.rate; i++ {
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

func (a *amortizedFreer) drainAll(tid int) {
	e := a.e
	q := &a.queues[tid]
	// Teardown frees are not timeline events; mute the free observer.
	e.rec.MuteFrees(tid)
	n := int64(0)
	for {
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
	e.rec.UnmuteFrees(tid)
}

func (a *amortizedFreer) orphanAll(reg *participants, tid int) {
	q := &a.queues[tid]
	if q.len() == 0 {
		return
	}
	batch := make([]*simalloc.Object, q.len())
	copy(batch, q.objs[q.head:])
	clear(q.objs)
	q.objs = q.objs[:0]
	q.head = 0
	reg.orphan(batch)
}

func (a *amortizedFreer) queued(tid int) int { return a.queues[tid].len() }

// newFreer picks the policy: amortized when af is set, else batch.
func newFreer(e *env, af bool) freer {
	if af {
		return newAmortizedFreer(e)
	}
	return newBatchFreer(e)
}
