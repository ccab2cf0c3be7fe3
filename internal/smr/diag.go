package smr

import "sync/atomic"

// Trial diagnostics.
//
// When the harness watchdog aborts a wedged trial it needs to say *why*:
// which participant slot stopped making reclamation progress, how much
// limbo it is sitting on, and whether the scheme's grace-period machinery
// was waiting on a stalled announcement. Diag is that snapshot — cheap,
// read-only, and safe to take while worker goroutines are still running
// (every field it reads is an atomic the owners update).

// SlotDiag is one participant slot's view at capture time.
type SlotDiag struct {
	// Slot is the participant slot (tid).
	Slot int
	// Live reports whether the slot is currently occupied. A live slot
	// with a large Limbo and no recent Freed growth is the classic
	// stalled-thread signature for epoch-based schemes.
	Live bool
	// Retired/Freed/Limbo are the slot's lifecycle counters.
	Retired, Freed, Limbo int64
}

// Diag is a reclaimer-wide diagnostic snapshot.
type Diag struct {
	// Scheme is the reclaimer's registry name.
	Scheme string
	// Epochs is the global epoch / grace-period / scan-round counter. A
	// wedged trial shows it frozen while Limbo grows.
	Epochs int64
	// Limbo and PeakLimbo are the current and high-water unreclaimed
	// object counts.
	Limbo, PeakLimbo int64
	// StallNanos/StallWaits mirror Stats: time spent in blocking
	// grace-period waits.
	StallNanos, StallWaits int64
	// OrphanObjects counts limbo objects abandoned by departed (or
	// crashed) participants, still awaiting adoption.
	OrphanObjects int64
	// Slots holds the per-slot breakdown.
	Slots []SlotDiag
}

// Diagnosable is implemented by every reclaimer in this package. It is a
// separate interface (not part of Reclaimer) so a Reclaimer outside smr need
// not diagnose itself. Such an implementation returns a nil Guard and gets no
// per-node protection from the trees — none exists.
type Diagnosable interface {
	Diagnose() Diag
}

// DiagnoseOf captures a diagnostic snapshot from r. ok is false when r does
// not support diagnostics.
func DiagnoseOf(r Reclaimer) (Diag, bool) {
	d, ok := r.(Diagnosable)
	if !ok {
		return Diag{}, false
	}
	return d.Diagnose(), true
}

// diag builds the env-level snapshot shared by every scheme.
func (e *env) diag(scheme string) Diag {
	d := Diag{
		Scheme:        scheme,
		Epochs:        e.epochs.Load(),
		Limbo:         e.totalLimbo(),
		PeakLimbo:     e.peakLimbo(),
		StallNanos:    e.stallNanos.Load(),
		StallWaits:    e.stallWaits.Load(),
		OrphanObjects: e.reg.orphanCount.Load(),
		Slots:         make([]SlotDiag, len(e.ctr)),
	}
	for i := range e.ctr {
		d.Slots[i] = SlotDiag{
			Slot:    i,
			Live:    e.reg.isLive(i),
			Retired: atomic.LoadInt64(&e.ctr[i].retired),
			Freed:   atomic.LoadInt64(&e.ctr[i].freed),
			Limbo:   atomic.LoadInt64(&e.ctr[i].limbo),
		}
	}
	return d
}
