package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
)

// Fault injection.
//
// The SMR literature's adversarial regime — the one the bounded-garbage
// guarantees of HP/HE/IBR/WFE/NBR exist for — is a thread that stalls or
// dies while the others keep retiring: epoch-based schemes (DEBRA, QSBR,
// RCU, Token-EBR) cannot advance past the laggard's announcement and
// accumulate garbage without bound. A trial's FaultPlan (WorkloadConfig.
// Faults) injects exactly that, deterministically and composably with the
// scenario and phase axes.
//
// Faults fire only at the 64-op batch boundaries of runWorker — the same
// edges that host the stop check, the yield policy, and the recorder merge
// — so the per-op hot path is untouched and a no-fault trial executes the
// identical instruction stream it always did. Trigger points are counted
// in per-worker completed operations, which makes them independent of the
// scheduler: the same plan on the same seed perturbs the same points of
// the same op streams.
//
// Four kinds:
//
//   - stall: the worker opens an operation (BeginOp) and parks inside it
//     until the rest of the population completes Span simulated ops. An
//     epoch-based scheme sees a pinned epoch and unbounded limbo growth; a
//     hazard-family scheme keeps freeing everything retired after the
//     stall began. The stall releases early if every other worker has
//     finished (or the trial stops), so FixedOps trials terminate.
//   - wedge: a stall that never releases on progress — only trial stop or
//     a watchdog abort ends it. This is the intentionally wedged test
//     double for watchdog and grid-quarantine coverage.
//   - crash: the worker exits at the boundary without Leave. Its slot
//     stays live with its limbo stranded — the worst case for the
//     participant registry's orphan adoption, which only runs when the
//     harness reaps the dead slot at trial end (Stack.reapCrashed).
//   - slowdown: yield amplification — the worker runs Factor extra
//     scheduler yields per batch for Span of its own ops, de-syncing it
//     from the population without holding any protection.
type FaultSpec struct {
	// Kind is "stall", "wedge", "crash" or "slowdown".
	Kind string
	// Worker is the target worker index in [0, Threads); -1 picks a worker
	// deterministically from the trial seed.
	Worker int
	// At is the per-worker completed-op count after which the fault fires
	// (rounded up to the next batch boundary by construction).
	At int `json:",omitempty"`
	// Span is the fault's extent: sim-ops the rest of the population must
	// complete to release a stall, or the per-worker op window a slowdown
	// lasts. Defaults to DefaultFaultSpan. Ignored by wedge and crash.
	Span int `json:",omitempty"`
	// Every, when positive, repeats the fault each Every per-worker ops
	// after the first firing. Ignored by crash (a worker dies once).
	Every int `json:",omitempty"`
	// Factor is the slowdown's extra yields per batch (default 4).
	Factor int `json:",omitempty"`
}

// DefaultFaultSpan is the stall/slowdown extent used when a spec leaves
// Span zero: long enough (relative to the default 2048-object batch) that
// an epoch scheme's limbo growth is unmistakable, short enough that small
// smoke trials still finish.
const DefaultFaultSpan = 4096

// defaultSlowdownFactor is the extra yields per batch of a slowdown spec
// that leaves Factor zero.
const defaultSlowdownFactor = 4

// FaultStats counts the faults a trial actually injected, by kind.
type FaultStats struct {
	Stalls    int64 `json:",omitempty"`
	Wedges    int64 `json:",omitempty"`
	Crashes   int64 `json:",omitempty"`
	Slowdowns int64 `json:",omitempty"`
}

// FormatFaults renders a plan in the -faults flag syntax: one
// "kind:wW@AT[~SPAN][/EVERY][xFACTOR]" element per spec, comma-separated,
// with a seeded worker rendered as "w?". An empty plan renders as "none".
func FormatFaults(specs []FaultSpec) string {
	if len(specs) == 0 {
		return "none"
	}
	parts := make([]string, len(specs))
	for i, f := range specs {
		w := "w?"
		if f.Worker >= 0 {
			w = fmt.Sprintf("w%d", f.Worker)
		}
		s := fmt.Sprintf("%s:%s@%d", f.Kind, w, f.At)
		if f.Span > 0 {
			s += fmt.Sprintf("~%d", f.Span)
		}
		if f.Every > 0 {
			s += fmt.Sprintf("/%d", f.Every)
		}
		if f.Factor > 0 {
			s += fmt.Sprintf("x%d", f.Factor)
		}
		parts[i] = s
	}
	return strings.Join(parts, ",")
}

// ParseFaults parses the FormatFaults syntax. "" and "none" mean no plan.
func ParseFaults(s string) ([]FaultSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	var specs []FaultSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		kind, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bench: fault %q: want kind:wW@AT[~SPAN][/EVERY][xFACTOR]", part)
		}
		f := FaultSpec{Kind: kind, Worker: -1}
		// Optional suffixes bind right to left; cut them off first.
		if rest, ok = cutSuffix(rest, "x", &f.Factor); !ok {
			return nil, fmt.Errorf("bench: fault %q: bad factor", part)
		}
		if rest, ok = cutSuffix(rest, "/", &f.Every); !ok {
			return nil, fmt.Errorf("bench: fault %q: bad repeat period", part)
		}
		if rest, ok = cutSuffix(rest, "~", &f.Span); !ok {
			return nil, fmt.Errorf("bench: fault %q: bad span", part)
		}
		wpart, apart, hasAt := strings.Cut(rest, "@")
		if hasAt {
			at, err := strconv.Atoi(apart)
			if err != nil || at < 0 {
				return nil, fmt.Errorf("bench: fault %q: bad trigger op %q", part, apart)
			}
			f.At = at
		}
		if wpart == "w?" {
			f.Worker = -1
		} else {
			w, err := strconv.Atoi(strings.TrimPrefix(wpart, "w"))
			if err != nil || !strings.HasPrefix(wpart, "w") || w < 0 {
				return nil, fmt.Errorf("bench: fault %q: bad worker %q (want wN or w?)", part, wpart)
			}
			f.Worker = w
		}
		specs = append(specs, f)
	}
	return specs, nil
}

// cutSuffix splits "prefixSEPn" into prefix and int n when sep is present
// after the worker part. ok is false on a malformed number.
func cutSuffix(s, sep string, dst *int) (string, bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, true
	}
	n, err := strconv.Atoi(s[i+len(sep):])
	if err != nil || n < 0 {
		return s, false
	}
	*dst = n
	return s[:i], true
}

// faultKind is FaultSpec.Kind resolved for the engine's dispatch.
type faultKind uint8

const (
	faultStall faultKind = iota
	faultWedge
	faultCrash
	faultSlowdown
)

var faultKinds = map[string]faultKind{
	"stall":    faultStall,
	"wedge":    faultWedge,
	"crash":    faultCrash,
	"slowdown": faultSlowdown,
}

// faultEvent is one resolved spec on one worker's schedule. at advances by
// every after each firing of a repeating fault; fired retires a one-shot.
type faultEvent struct {
	kind   faultKind
	at     int64
	span   int64
	every  int64
	factor int64
	fired  bool
}

// workerFaultState is one worker's private fault schedule plus the
// crash/slot markers the coordinator reads after the worker is done.
type workerFaultState struct {
	events     []faultEvent
	ops        int64 // cumulative completed ops across all phases
	slowUntil  int64
	slowFactor int64
	// slot is the participant slot the worker last ran on; the trial-end
	// reaper Leaves it when the worker crashed there.
	slot atomic.Int64
	// dead is set by a crash fault. The worker never runs again (phased
	// trials skip dead workers) and never Leaves — that is the fault.
	dead atomic.Bool
}

// faultEngine drives one trial's fault plan. All per-worker state is owner
// -written at batch boundaries; the shared fields are atomics.
type faultEngine struct {
	state []workerFaultState
	// running counts workers currently inside runWorker; a stalled worker
	// releases when it is the only one left, so op-bounded trials finish.
	running atomic.Int64

	stalls, wedges, crashes, slowdowns atomic.Int64
}

// splitmix64 is the seeded-worker mixer (same finalizer phaseSeed's
// golden-ratio increment comes from).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newFaultEngine validates and resolves a plan against cfg. A nil return
// (with nil error) means no plan: runWorker's fault hook short-circuits on
// the nil check alone.
func newFaultEngine(cfg *WorkloadConfig) (*faultEngine, error) {
	if len(cfg.Faults) == 0 {
		return nil, nil
	}
	fe := &faultEngine{state: make([]workerFaultState, cfg.Threads)}
	for i := range fe.state {
		fe.state[i].slot.Store(-1)
	}
	for i, f := range cfg.Faults {
		kind, ok := faultKinds[f.Kind]
		if !ok {
			return nil, fmt.Errorf("bench: fault %d: unknown kind %q (want stall, wedge, crash or slowdown)", i, f.Kind)
		}
		w := f.Worker
		if w < 0 {
			w = int(splitmix64(cfg.Seed+uint64(i)) % uint64(cfg.Threads))
		}
		if w >= cfg.Threads {
			return nil, fmt.Errorf("bench: fault %d: worker %d outside [0, Threads=%d)", i, f.Worker, cfg.Threads)
		}
		if f.At < 0 || f.Span < 0 || f.Every < 0 || f.Factor < 0 {
			return nil, fmt.Errorf("bench: fault %d: negative parameter", i)
		}
		ev := faultEvent{
			kind:   kind,
			at:     int64(f.At),
			span:   int64(f.Span),
			every:  int64(f.Every),
			factor: int64(f.Factor),
		}
		if ev.span == 0 {
			ev.span = DefaultFaultSpan
		}
		if ev.factor == 0 {
			ev.factor = defaultSlowdownFactor
		}
		if kind == faultCrash {
			ev.every = 0
		}
		fe.state[w].events = append(fe.state[w].events, ev)
	}
	return fe, nil
}

// ValidateFaults reports whether cfg's fault plan would construct. The
// grid runner calls it at expansion time so a bad plan fails fast instead
// of per trial.
func ValidateFaults(cfg WorkloadConfig) error {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	_, err := newFaultEngine(&cfg)
	return err
}

// enter marks worker w running on slot; exit undoes it. Both bracket
// runWorker.
func (fe *faultEngine) enter(w, slot int) {
	fe.running.Add(1)
	fe.state[w].slot.Store(int64(slot))
}

func (fe *faultEngine) exit() { fe.running.Add(-1) }

// isDead reports whether worker w crashed in an earlier phase; never, on
// the nil engine of a trial without a fault plan.
func (fe *faultEngine) isDead(w int) bool { return fe != nil && fe.state[w].dead.Load() }

// onBatch is the injection point, called by runWorker after each completed
// batch of n ops. It returns true when the worker must crash (exit
// immediately, without Leave).
func (fe *faultEngine) onBatch(st *Stack, w, tid, n int) (crashed bool) {
	ws := &fe.state[w]
	ws.ops += int64(n)
	if ws.ops <= ws.slowUntil {
		for i := int64(0); i < ws.slowFactor; i++ {
			runtime.Gosched()
		}
	}
	for i := range ws.events {
		ev := &ws.events[i]
		if ev.fired || ws.ops < ev.at {
			continue
		}
		if ev.every > 0 {
			ev.at += ev.every
		} else {
			ev.fired = true
		}
		switch ev.kind {
		case faultStall, faultWedge:
			fe.park(st, tid, ev)
			// An open-system worker returning from a park drops the backlog
			// that arrived while it was held — the fabric rerouted its queue.
			// Slowdown faults keep their backlog; degraded service is the
			// signal there.
			st.arrivals.resync(w)
		case faultSlowdown:
			fe.slowdowns.Add(1)
			ws.slowUntil = ws.ops + ev.span
			ws.slowFactor = ev.factor
		case faultCrash:
			fe.crashes.Add(1)
			ws.dead.Store(true)
			return true
		}
	}
	return false
}

// park holds tid inside an open operation — the adversarial critical
// section. A stall releases once the rest of the population completes
// span sim-ops (heartbeat delta), every other worker has finished, or the
// trial stops; a wedge releases only on stop/abort. Only the reclaimer
// sees the open operation: the worker holds no host node, so the set is
// parked meanwhile and host recycling goes on without it.
func (fe *faultEngine) park(st *Stack, tid int, ev *faultEvent) {
	if ev.kind == faultWedge {
		fe.wedges.Add(1)
	} else {
		fe.stalls.Add(1)
	}
	st.Set.Park(tid)
	st.Reclaimer.BeginOp(tid)
	target := st.heart.Load() + ev.span
	for !st.Stopped() {
		if ev.kind == faultStall && (st.heart.Load() >= target || fe.running.Load() <= 1) {
			break
		}
		runtime.Gosched()
	}
	st.Reclaimer.EndOp(tid)
	st.Set.Quiesce(tid)
}

// snapshot reports the injected-fault counts for TrialResult.
func (fe *faultEngine) snapshot() FaultStats {
	if fe == nil {
		return FaultStats{}
	}
	return FaultStats{
		Stalls:    fe.stalls.Load(),
		Wedges:    fe.wedges.Load(),
		Crashes:   fe.crashes.Load(),
		Slowdowns: fe.slowdowns.Load(),
	}
}
