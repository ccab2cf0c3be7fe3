package smr

import "repro/internal/simalloc"

// None is the leaky "no reclamation" baseline: retired objects are never
// freed, so the allocator can never recycle them and the mapped footprint
// grows without bound (Fig. 1c/1d). The paper notes `none` is often
// mistakenly treated as an upper bound on reclaimer performance; the AF
// algorithms beat it because recycling through thread caches improves
// locality and avoids fresh page mappings.
//
// There is no grace-period machinery: every method but the three below is
// core's default.
type None struct{ core }

func newNone(name string, cfg Config, _ bool) Reclaimer {
	return &None{newCore(name, cfg, false)}
}

// Retire leaks o: it is counted but never freed.
func (n *None) Retire(tid int, _ *simalloc.Object) { n.e.noteRetire(tid) }

// Leave vacates the slot. There is no limbo to orphan — retired objects
// were already leaked at Retire.
func (n *None) Leave(tid int) { n.depart(tid) }

// Drain is a no-op: the point of the baseline is that nothing is freed.
func (n *None) Drain(int) {}
