package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/smr"
)

// The trial watchdog.
//
// Op-bounded phases run their budgets to completion with no wall-clock
// stop — which is what makes them deterministic, and also what lets a
// genuine wedge (a regressed grace-period hang, a wedge fault, two
// mutually-stalled workers) hang the process and with it a multi-hour grid
// sweep. The watchdog turns a hang into a diagnosed failure: it monitors
// the stack's ops-progress heartbeat, and when no worker completes a batch
// for cfg.Deadline it captures per-thread diagnostics (phase, epochs,
// per-slot limbo, fault state, a goroutine dump), aborts the trial
// (Stack.Abort — every stop-aware wait bails out), and RunTrial returns a
// partial TrialResult carrying a *TrialError instead of never returning.

// TrialError is the error a watchdog-aborted trial returns. Reason is a
// one-line summary (persisted in quarantine records); Diagnostics is the
// full capture for humans and tests.
type TrialError struct {
	// Reason summarizes the abort in one line.
	Reason string
	// Stalled is how long the heartbeat had been flat when the watchdog
	// fired.
	Stalled time.Duration
	// Diagnostics is the multi-line capture taken at fire time.
	Diagnostics string
}

func (e *TrialError) Error() string { return e.Reason }

// abortGrace is how long RunTrial waits for workers to unwind after a
// watchdog abort before abandoning them. Recoverable wedges (anything
// parked in a stop-aware loop) unwind in microseconds; only a true
// deadlock — which no flag can release — exhausts it, in which case the
// trial's goroutines and stack are deliberately leaked rather than waited
// on forever. Variable so tests can shorten it.
var abortGrace = 2 * time.Second

// goroutineDumpCap bounds the diagnostics' goroutine dump.
const goroutineDumpCap = 64 << 10

type watchdog struct {
	st       *Stack
	deadline time.Duration
	// fired is closed when the watchdog aborts the trial.
	fired chan struct{}
	// quit asks the loop to retire; done is closed when it has.
	quit     chan struct{}
	done     chan struct{}
	quitOnce sync.Once
	err      atomic.Pointer[TrialError]
}

// startWatchdog arms a watchdog over st. Returns nil when deadline <= 0;
// every method is nil-tolerant, so callers thread the pointer through
// unconditionally.
func startWatchdog(st *Stack, deadline time.Duration) *watchdog {
	if deadline <= 0 {
		return nil
	}
	w := &watchdog{
		st:       st,
		deadline: deadline,
		fired:    make(chan struct{}),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.loop()
	return w
}

// firedCh returns the abort channel; nil (blocks forever) on a nil
// watchdog, so it slots directly into selects.
func (w *watchdog) firedCh() <-chan struct{} {
	if w == nil {
		return nil
	}
	return w.fired
}

// stop retires the watchdog and joins its goroutine, so trialErr reads
// after stop are stable (no concurrent fire). Idempotent and nil-tolerant.
func (w *watchdog) stop() {
	if w == nil {
		return
	}
	w.quitOnce.Do(func() { close(w.quit) })
	<-w.done
}

// trialErr returns the abort error, nil when the watchdog never fired.
func (w *watchdog) trialErr() *TrialError {
	if w == nil {
		return nil
	}
	return w.err.Load()
}

func (w *watchdog) loop() {
	defer close(w.done)
	tick := w.deadline / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	last := w.st.Heartbeat()
	lastMove := time.Now()
	for {
		select {
		case <-w.quit:
			return
		case <-ticker.C:
		}
		cur := w.st.Heartbeat()
		if cur != last {
			last, lastMove = cur, time.Now()
			continue
		}
		stalled := time.Since(lastMove)
		if stalled < w.deadline {
			continue
		}
		terr := &TrialError{
			Reason: fmt.Sprintf("bench: watchdog: no op progress for %v (deadline %v, heartbeat %d)",
				stalled.Round(time.Millisecond), w.deadline, cur),
			Stalled:     stalled,
			Diagnostics: captureDiagnostics(w.st),
		}
		w.err.Store(terr)
		w.st.Abort()
		close(w.fired)
		return
	}
}

// captureDiagnostics renders the wedged trial's state: what the harness
// knows (heartbeat, phase, fault counts), what the reclaimer knows
// (epochs, per-slot limbo — a live slot with big limbo and frozen frees is
// the stalled-thread signature), and where every goroutine is parked.
// Everything read here is an atomic the owners update, so the capture is
// safe while workers are still running (or wedged).
func captureDiagnostics(st *Stack) string {
	var sb strings.Builder
	cfg := st.Config()
	fmt.Fprintf(&sb, "trial %s/%s/%s/%s threads=%d seed=%d\n",
		cfg.Scenario, cfg.DataStructure, cfg.Allocator, cfg.Reclaimer, cfg.Threads, cfg.Seed)
	fmt.Fprintf(&sb, "heartbeat=%d ops, phase=%d\n", st.Heartbeat(), st.phase.Load())
	if fe := st.faults; fe != nil {
		fs := fe.snapshot()
		fmt.Fprintf(&sb, "faults: stalls=%d wedges=%d crashes=%d slowdowns=%d running_workers=%d\n",
			fs.Stalls, fs.Wedges, fs.Crashes, fs.Slowdowns, fe.running.Load())
	}
	if d, ok := smr.DiagnoseOf(st.Reclaimer); ok {
		fmt.Fprintf(&sb, "reclaimer %s: epochs=%d limbo=%d peak_limbo=%d orphans=%d stall_waits=%d stall=%v\n",
			d.Scheme, d.Epochs, d.Limbo, d.PeakLimbo, d.OrphanObjects, d.StallWaits,
			time.Duration(d.StallNanos))
		for _, sl := range d.Slots {
			fmt.Fprintf(&sb, "  slot %d: live=%t retired=%d freed=%d limbo=%d\n",
				sl.Slot, sl.Live, sl.Retired, sl.Freed, sl.Limbo)
		}
	}
	buf := make([]byte, goroutineDumpCap)
	n := runtime.Stack(buf, true)
	sb.WriteString("goroutines:\n")
	sb.Write(buf[:n])
	if n == len(buf) {
		sb.WriteString("\n[goroutine dump truncated]\n")
	}
	return sb.String()
}

// abandonedResult builds the result of a trial whose workers never
// unwound after an abort. The stack is deliberately not Closed (a Drain
// would race the wedged workers) and its goroutines leak; the trial's
// error carries the diagnostics captured at fire time.
func abandonedResult(cfg *WorkloadConfig, wd *watchdog) (TrialResult, error) {
	terr := wd.trialErr()
	if terr == nil {
		terr = &TrialError{Reason: "bench: trial abandoned with workers wedged"}
	}
	res := TrialResult{Scenario: cfg.Scenario, Seed: cfg.Seed, Error: terr.Reason}
	stampProvenance(&res)
	return res, terr
}
