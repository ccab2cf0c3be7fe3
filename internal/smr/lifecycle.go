package smr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/simalloc"
)

// Participant lifecycle.
//
// Every reclaimer's per-thread state is sized at construction for
// Config.Threads slots, and historically all of them were occupied for the
// whole trial. The participants registry makes slots a dynamic resource:
// a slot can be vacated (Leave) and recycled by a later arrival (Join),
// which is what thread-churn workloads exercise.
//
// Two invariants keep dynamic membership safe:
//
//   - Grace periods never wait on a vacated slot. Each scheme's detection
//     loop consults the live flags (DEBRA/QSBR announcement scans, the
//     Token-EBR ring) or an equivalent per-slot quiescence signal it
//     already had (RCU counter parity, NBR's idle announcement, cleared
//     hazard/era/interval reservations).
//
//   - A departing participant's unreclaimed objects are never freed
//     immediately — other threads may still hold references from ops in
//     flight. They are handed to the shared orphan queue, and survivors
//     adopt them into their own limbo machinery: core.depart is the one
//     Leave body, and each scheme calls core.adopt at the point that
//     matches its safety argument (the comment at that call says why).
//     Adopted objects then ride an ordinary grace period before being
//     freed. Stack teardown (core.drain) empties the queue uncondition-
//     ally, so nothing leaks even if no survivor runs another operation.
//
// Fixed-population trials never call Join/Leave: every slot starts live,
// the orphan queue stays empty, and the per-operation paths are unchanged
// except for live-flag loads on already-cold scan steps — modeled
// statistics are bit-identical to the pre-lifecycle harness (pinned by
// the fixed-population golden parity test in internal/bench).

// participants is the slot registry shared by one reclaimer instance:
// which slots are occupied, which are free for recycling, and the orphan
// queue of limbo objects abandoned by departed participants.
type participants struct {
	threads int
	// live[slot] is 1 while the slot is occupied. Grace-period scans load
	// it to skip vacated slots; padded so scanning threads don't false-
	// share with membership changes.
	live []pad64

	// mu guards free; joins/leaves are read by Stats.
	mu            sync.Mutex
	free          []int // vacated slots, LIFO so a rejoin reuses the most recently vacated slot
	joins, leaves atomic.Int64

	// orphanCount is the cheap emptiness probe adopters load before
	// touching the mutex-guarded queue; Leave and adoption are rare, so
	// the queue itself needs no cleverness.
	orphanCount atomic.Int64
	orphanMu    sync.Mutex
	orphans     [][]*simalloc.Object
	adopted     atomic.Int64
}

func newParticipants(threads int) *participants {
	p := &participants{threads: threads, live: make([]pad64, threads)}
	for i := range p.live {
		p.live[i].v.Store(1) // fixed-population compatibility: every slot starts occupied
	}
	return p
}

// isLive reports whether slot is currently occupied.
func (p *participants) isLive(slot int) bool { return p.live[slot].v.Load() == 1 }

// join occupies a vacated slot, most recently vacated first.
func (p *participants) join() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return -1, fmt.Errorf("smr: Join: all %d participant slots are occupied", p.threads)
	}
	slot := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.live[slot].v.Store(1)
	p.joins.Add(1)
	return slot, nil
}

// leave vacates slot. The caller (the reclaimer's Leave) must have already
// orphaned the slot's limbo and cleared its announcements.
func (p *participants) leave(slot int) {
	p.mu.Lock()
	p.live[slot].v.Store(0)
	p.free = append(p.free, slot)
	p.leaves.Add(1)
	p.mu.Unlock()
}

// orphan hands a departed slot's pending objects to the shared queue.
// Ownership of the slice transfers; callers must not reuse it.
func (p *participants) orphan(objs []*simalloc.Object) {
	if len(objs) == 0 {
		return
	}
	p.orphanMu.Lock()
	p.orphans = append(p.orphans, objs)
	p.orphanMu.Unlock()
	p.orphanCount.Add(int64(len(objs)))
}

// hasOrphans is the fast pre-check for adoption sites.
func (p *participants) hasOrphans() bool { return p.orphanCount.Load() != 0 }

// adoptInto appends every pending orphan batch to dst and returns the
// grown slice. The adopter re-homes the objects in its own limbo
// machinery, so they ride an ordinary grace period before being freed.
func (p *participants) adoptInto(dst []*simalloc.Object) []*simalloc.Object {
	p.orphanMu.Lock()
	var n int64
	for i, batch := range p.orphans {
		dst = append(dst, batch...)
		n += int64(len(batch))
		p.orphans[i] = nil // drop the queue's object references
	}
	p.orphans = p.orphans[:0]
	p.orphanMu.Unlock()
	if n != 0 {
		p.orphanCount.Add(-n)
		p.adopted.Add(n)
	}
	return dst
}
