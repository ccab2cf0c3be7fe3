package smr

import (
	"unsafe"

	"repro/internal/simalloc"
)

// The Guard fast path.
//
// Reclaimer.Protect is called once per *visited node* — by far the hottest
// call in the harness: an ABtree traversal publishes three to five
// protections per operation, each through an interface dispatch the compiler
// cannot devirtualize or inline. A Guard is the concrete, per-(reclaimer,
// tid) protection handle that removes that boundary: it carries direct
// pointers into the reclaimer's padded announcement state plus a mode tag.
// For HP, Protect inlines at the visit site into one bounds check and one
// XCHG of the object's address into the slot (Michael's per-node cost, no
// call, no write barrier, no slot division); TestGuardProtectInlines pins
// that. Every other mode, and an HP slot at or beyond the window, takes the
// out-of-line protect: a switch on the mode, then its stores.
//
// Trees resolve guards once at construction (see internal/ds) and publish
// through nothing else: reclaimers whose Protect is a real publication (HP,
// HE/WFE, IBR) hand out a Guard per tid; the rest, whose Protect is a no-op,
// return nil so the trees skip per-node publication entirely. Those are the
// epoch-based reclaimers (DEBRA, QSBR, RCU, Token-EBR, none) and NBR/NBR+,
// which acknowledge a neutralization round only at an operation boundary
// (nbr.go): an acknowledgement at a visited node would let a round free what
// the reader loaded before it, which the original's neutralized reader drops
// by restarting.
//
// Semantics contract: Guard.Protect(slot, o) must be observably identical to
// Reclaimer.Protect(tid, slot, o), its specification, for the tid the guard
// was built for. The per-reclaimer tests in guard_test.go pin this equality
// for every registered reclaimer.

// HazardSlots is the per-thread protection window of the slotted schemes
// (HP, HE, WFE): a traversal publishes the node at depth d in slot
// d%HazardSlots, so the node it visits, its parent and its grandparent are
// held at once — what a tree's descent needs to validate a visit against
// the parent and for an update to lock two levels.
const HazardSlots = 3

// GuardMode tags how a Guard publishes per-node protection.
type GuardMode uint8

const (
	// GuardNoop marks reclaimers whose Protect is a no-op (epoch-based
	// schemes, NBR). Their Guard(tid) returns nil, so trees never see this mode
	// on a live guard; it exists for completeness and tests.
	GuardNoop GuardMode = iota
	// GuardPtr stores the visited node's object address into the tid's
	// hazard-slot window (HP).
	GuardPtr
	// GuardEra stores the current global era into the tid's era-slot window
	// (HE, WFE — the latter with extra helping stores).
	GuardEra
	// GuardInterval extends the tid's reservation upper bound to the current
	// global epoch (IBR).
	GuardInterval
)

// Guard is one (reclaimer, tid) pair's zero-dispatch protection handle. The
// zero value is unusable; reclaimers build guards at construction time and
// hand them out via their Guard(tid) method. A Guard must only be used by
// the goroutine driving its tid, exactly like the tid itself.
type Guard struct {
	mode GuardMode

	// ptrs is the tid's hazard-pointer window (GuardPtr); it is empty in
	// every other mode, which is what lets Protect's fast path skip a mode
	// test. A window's length is its slot count.
	ptrs []padPtr
	// eras is the tid's era-slot window (GuardEra).
	eras []pad64
	// era is the global era/epoch clock (GuardEra, GuardInterval).
	era *pad64
	// upper is the tid's reservation upper bound (GuardInterval).
	upper *pad64
	// extraStores models WFE's helping traffic (see newEraScheme).
	extraStores int
}

// Mode reports how the guard publishes protection.
func (g *Guard) Mode() GuardMode { return g.mode }

// Protect publishes protection for o in the given slot, exactly as the
// owning reclaimer's Protect(tid, slot, o) would. It must stay within the
// inlining budget (TestGuardProtectInlines): only inlined is the HP path
// one bounds check and one XCHG at the visit site.
func (g *Guard) Protect(slot int, o *simalloc.Object) {
	if slot < len(g.ptrs) {
		g.ptrs[slot].p.Store(uintptr(unsafe.Pointer(o)))
	} else {
		g.protect(slot, o)
	}
}

// protect is Protect's slow path: an HP slot at or beyond the window, and
// every mode that is not GuardPtr.
func (g *Guard) protect(slot int, o *simalloc.Object) {
	switch g.mode {
	case GuardPtr:
		g.ptrs[slot%len(g.ptrs)].p.Store(uintptr(unsafe.Pointer(o)))
	case GuardEra:
		e := g.era.v.Load()
		s := &g.eras[slot%len(g.eras)]
		s.v.Store(e)
		for i := 0; i < g.extraStores; i++ {
			s.v.Store(e)
		}
	case GuardInterval:
		e := g.era.v.Load()
		if g.upper.v.Load() < e {
			g.upper.v.Store(e)
		}
	}
}
