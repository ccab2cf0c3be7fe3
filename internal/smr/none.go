package smr

import "repro/internal/simalloc"

// None is the leaky "no reclamation" baseline: retired objects are never
// freed, so the allocator can never recycle them and the mapped footprint
// grows without bound (Fig. 1c/1d). The paper notes `none` is often
// mistakenly treated as an upper bound on reclaimer performance; the AF
// algorithms beat it because recycling through thread caches improves
// locality and avoids fresh page mappings.
type None struct {
	e env
}

// NewNone constructs the leaky baseline.
func NewNone(cfg Config) *None {
	return &None{e: newEnv(cfg)}
}

func (n *None) Name() string { return "none" }

// BeginOp is a no-op; there is no grace-period machinery.
func (n *None) BeginOp(int) {}

// EndOp is a no-op.
func (n *None) EndOp(int) {}

// OnAlloc is a no-op.
func (n *None) OnAlloc(int, *simalloc.Object) {}

// Protect is a no-op.
func (n *None) Protect(int, int, *simalloc.Object) {}

// Guard returns nil: the leaky baseline protects nothing.
func (n *None) Guard(int) *Guard { return nil }

// Retire leaks o: it is counted but never freed.
func (n *None) Retire(tid int, _ *simalloc.Object) {
	n.e.noteRetire(tid)
}

// Join occupies a vacated slot; the baseline keeps no per-slot state to
// re-prime.
func (n *None) Join() (int, error) { return n.e.reg.join() }

// Leave vacates the slot. There is no limbo to orphan — retired objects
// were already leaked at Retire.
func (n *None) Leave(tid int) { n.e.leave(tid) }

// Drain is a no-op: the point of the baseline is that nothing is freed.
func (n *None) Drain(int) {}

// Stats returns an aggregated snapshot.
func (n *None) Stats() Stats { return n.e.stats() }
