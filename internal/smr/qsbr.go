package smr

// QSBR is quiescent-state-based reclamation (Hart et al., JPDC '07). The end
// of every data-structure operation is a quiescent state: the thread cannot
// hold references across it, so announcing the epoch there (instead of at
// operation start) suffices. That is the whole difference from DEBRA, and the
// whole of this file: DEBRA's announce / rotate / adopt / amortized-scan body
// runs from EndOp, and with it DEBRA's adoption point (orphans join the
// current-epoch bag and wait out a fresh two-epoch grace period) and its
// skipping of vacated slots (a departed participant is permanently
// quiescent). QSBR's per-operation overhead is the lowest of the classical
// schemes.
type QSBR struct{ DEBRA }

func newQSBR(name string, cfg Config, af bool) Reclaimer {
	return &QSBR{makeDEBRA(name, cfg, af)}
}

// BeginOp is a no-op: QSBR does all its work at quiescent states.
func (q *QSBR) BeginOp(int) {}

// EndOp announces a quiescent state and pumps the freer.
func (q *QSBR) EndOp(tid int) {
	q.DEBRA.BeginOp(tid)
	q.pump(tid)
}
