package bench

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The schedule and its coordinator.
//
// What a trial's workers do is a schedule of phases, each a (scenario ×
// live-thread-count × per-worker op budget) triple; the fixed-population
// trial of the paper is the schedule of one phase (see resolveSchedule).
// Worker goroutines park and unpark at phase boundaries: a worker dropped
// by a shrinking phase Leaves the participant registry — its limbo is
// orphaned for survivors to adopt and its allocator cache flushes back with
// modeled cost — and a worker added by a growing phase Joins, recycling the
// most recently vacated slot. Inside a phase every worker runs the one
// 64-op batched loop (runWorker).
//
// All lifecycle transitions are performed serially by the coordinator
// between phases, while every worker is parked at the barrier: slot
// assignment, orphan push order, and allocator flush order are therefore
// deterministic for a given schedule.

// PhaseSpec is one phase of a trial's schedule.
type PhaseSpec struct {
	// Scenario names the workload streams for this phase; empty means the
	// trial's scenario. Only the named scenario's key/op streams are used —
	// a default phase schedule it may carry is ignored.
	Scenario string `json:",omitempty"`
	// Live is the number of live workers; 0 means all of cfg.Threads.
	Live int `json:",omitempty"`
	// Ops is the per-worker operation budget; 0 means cfg.FixedOps when
	// positive, else defaultPhaseOps.
	Ops int `json:",omitempty"`
}

// defaultPhaseOps is the per-worker op budget of a phase that specifies
// none (and whose trial sets no FixedOps).
const defaultPhaseOps = 2048

// phaseRun is one resolved phase: every zero field filled in, plus the
// phase's workload instance.
type phaseRun struct {
	spec PhaseSpec
	wl   Workload
}

// resolveSchedule returns the schedule cfg runs, validated and with every
// default filled in: cfg.Phases, else the scenario's default schedule, else
// — implicit true — the single phase {cfg.Scenario, Threads, FixedOps} of
// the fixed-population trial, whose zero op budget means "until the
// Duration window's Stop". An empty cfg.Scenario is normalized to "paper"
// in place, so the result reports the scenario that actually ran.
func resolveSchedule(cfg *WorkloadConfig) (runs []phaseRun, implicit bool, err error) {
	if cfg.Scenario == "" {
		cfg.Scenario = "paper"
	}
	wl, err := NewScenario(cfg.Scenario)
	if err != nil {
		return nil, false, err
	}
	phases := cfg.Phases
	if len(phases) == 0 {
		phases = wl.DefaultPhases(cfg)
	}
	if len(phases) == 0 {
		only := PhaseSpec{Scenario: cfg.Scenario, Live: cfg.Threads, Ops: cfg.FixedOps}
		return []phaseRun{{spec: only, wl: wl}}, true, nil
	}
	runs = make([]phaseRun, 0, len(phases))
	for i, ph := range phases {
		if ph.Live == 0 {
			ph.Live = cfg.Threads
		}
		if ph.Live < 1 || ph.Live > cfg.Threads {
			return nil, false, fmt.Errorf("bench: phase %d: live count %d outside [1, Threads=%d]", i, ph.Live, cfg.Threads)
		}
		if ph.Ops == 0 {
			if cfg.FixedOps > 0 {
				ph.Ops = cfg.FixedOps
			} else {
				ph.Ops = defaultPhaseOps
			}
		}
		if ph.Ops < 0 {
			return nil, false, fmt.Errorf("bench: phase %d: op budget %d must be positive", i, ph.Ops)
		}
		if ph.Scenario == "" {
			ph.Scenario = cfg.Scenario
		}
		wl, err := NewScenario(ph.Scenario)
		if err != nil {
			return nil, false, fmt.Errorf("bench: phase %d: %w", i, err)
		}
		runs = append(runs, phaseRun{spec: ph, wl: wl})
	}
	return runs, false, nil
}

// specsOf is the schedule's specs, fully resolved.
func specsOf(runs []phaseRun) []PhaseSpec {
	out := make([]PhaseSpec, len(runs))
	for i, r := range runs {
		out[i] = r.spec
	}
	return out
}

// EffectivePhases resolves the schedule cfg would run — its own Phases,
// else the scenario's default schedule — with every live count and op
// budget filled in. A nil schedule (and nil error) means the implicit
// single phase of a fixed-population trial, which TrialResult.Phases leaves
// unnamed too. Emitters use it to make stored results self-describing.
func EffectivePhases(cfg WorkloadConfig) ([]PhaseSpec, error) {
	runs, implicit, err := resolveSchedule(&cfg)
	if err != nil || implicit {
		return nil, err
	}
	return specsOf(runs), nil
}

// FormatPhases renders a schedule in the -phases flag syntax: one
// "[scenario:]LIVExOPS" element per phase, comma-separated (e.g.
// "4x2000,2x2000" or "paper:4x1000,read_mostly:4x1000").
func FormatPhases(phases []PhaseSpec) string {
	parts := make([]string, len(phases))
	for i, ph := range phases {
		s := fmt.Sprintf("%dx%d", ph.Live, ph.Ops)
		if ph.Scenario != "" {
			s = ph.Scenario + ":" + s
		}
		parts[i] = s
	}
	return strings.Join(parts, ",")
}

// ParsePhases parses the FormatPhases syntax. Zero live counts and op
// budgets are allowed and resolve to their defaults at trial time.
func ParsePhases(s string) ([]PhaseSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var phases []PhaseSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		var ph PhaseSpec
		if i := strings.LastIndexByte(part, ':'); i >= 0 {
			ph.Scenario = part[:i]
			part = part[i+1:]
		}
		lx, ox, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("bench: phase %q: want [scenario:]LIVExOPS", part)
		}
		live, err := strconv.Atoi(lx)
		if err != nil || live < 0 {
			return nil, fmt.Errorf("bench: phase %q: bad live count %q", part, lx)
		}
		ops, err := strconv.Atoi(ox)
		if err != nil || ops < 0 {
			return nil, fmt.Errorf("bench: phase %q: bad op budget %q", part, ox)
		}
		ph.Live, ph.Ops = live, ops
		phases = append(phases, ph)
	}
	return phases, nil
}

// phaseSeed derives phase pi's stream seed. Phase 0 uses the trial seed
// verbatim, so the implicit single phase draws the per-thread streams the
// paper's trial always drew, and spelling that phase out in cfg.Phases
// changes nothing (pinned by TestSinglePhaseMatchesFixedOps).
func phaseSeed(base uint64, phase int) uint64 {
	return base + uint64(phase)*0x9e3779b97f4a7c15
}

// phaseWorker is one worker goroutine as the coordinator sees it. The
// coordinator writes every field but ops while the worker is parked; the
// worker adds to ops before it parks again.
type phaseWorker struct {
	// release carries one token per phase the worker runs; closing it ends
	// the goroutine.
	release chan struct{}
	// slot is the registry slot the worker holds, -1 while departed.
	slot int
	// kd, om and budget are the coming phase's streams and op budget.
	kd     KeyDist
	om     OpMix
	budget int
	// ops counts the operations the worker has completed.
	ops int64
}

// runPhases is the coordinator: it drives a resolved schedule over an
// assembled stack whose prefill has completed, and returns the total op
// count and the measured wall time. It is the only place worker goroutines
// start. Worker w runs phase streams keyed by its worker index (stable
// across slot recycling), while its set/allocator/reclaimer calls use
// whatever slot the registry currently assigns it.
//
// The measured clock starts once the first phase's streams exist, just
// before its workers are released, so a scenario's set-up (the zipfian zeta
// table) stays outside Wall. A phase with a zero op budget is the Duration
// window — only the implicit phase can have one, so it is also the last:
// the coordinator arms Stop for Duration after the release. Op-bounded
// phases run to completion and never see Stop; a watchdog Abort ends either
// kind at the next batch boundary.
func runPhases(cfg *WorkloadConfig, st *Stack, runs []phaseRun) (int64, time.Duration, error) {
	workers := make([]phaseWorker, cfg.Threads)
	var workerWG, phaseWG sync.WaitGroup
	for w := range workers {
		// Every slot starts occupied (fixed-population compatibility),
		// worker w owning slot w; the first phase's shrink vacates the rest.
		workers[w].slot = w
		workers[w].release = make(chan struct{})
		workerWG.Add(1)
		go func(w int, wk *phaseWorker) {
			defer workerWG.Done()
			for range wk.release {
				wk.ops += runWorker(cfg, st, w, wk.slot, wk.kd, wk.om, wk.budget)
				phaseWG.Done()
			}
		}(w, &workers[w])
	}
	cur := len(workers)

	// pcfg is what the stream factories see: the trial's configuration under
	// the running phase's scenario and seed.
	pcfg := *cfg
	start := time.Now()
	var err error
	for pi, pr := range runs {
		if st.Aborted() {
			// Watchdog abort between phases: skip the rest of the schedule.
			break
		}
		st.phase.Store(int64(pi))
		live := pr.spec.Live
		// Shrink: the highest-indexed workers leave first, so the LIFO
		// free list re-admits them in reverse order on the next growth. A
		// crash-faulted worker never runs again: the coordinator stops
		// dispatching to it, and its slot is neither Left here (the crash
		// stranded it mid-operation — the trial-end reaper retires it) nor
		// re-Joined on growth.
		for w := cur - 1; w >= live; w-- {
			if st.faults.isDead(w) {
				continue
			}
			st.Leave(workers[w].slot)
			workers[w].slot = -1
		}
		// Grow: parked workers re-join on recycled slots.
		for w := cur; w < live; w++ {
			if st.faults.isDead(w) {
				continue
			}
			slot, jerr := st.Join()
			if jerr != nil {
				err = fmt.Errorf("bench: phase %d: %w", pi, jerr)
				break
			}
			workers[w].slot = slot
		}
		if err != nil {
			break
		}
		cur = live

		// Streams are built serially, before the phase's workers are
		// released, so scenarios may share memoized tables across threads
		// without locking.
		pcfg.Scenario = pr.spec.Scenario
		pcfg.Seed = phaseSeed(cfg.Seed, pi)
		for w := 0; w < live; w++ {
			if st.faults.isDead(w) {
				continue
			}
			wk := &workers[w]
			wk.kd, wk.om, wk.budget = pr.wl.KeyDist(&pcfg, w), pr.wl.OpMix(&pcfg, w), pr.spec.Ops
		}
		if pi == 0 {
			start = time.Now()
		}
		for w := 0; w < live; w++ {
			if st.faults.isDead(w) {
				continue
			}
			phaseWG.Add(1)
			workers[w].release <- struct{}{}
		}
		if pr.spec.Ops == 0 {
			defer time.AfterFunc(cfg.Duration, st.Stop).Stop()
		}
		phaseWG.Wait()
	}
	for w := range workers {
		close(workers[w].release)
	}
	workerWG.Wait()
	wall := time.Since(start)

	var total int64
	for w := range workers {
		total += workers[w].ops
	}
	return total, wall, err
}

// churnPhases is the "churn" scenario's default schedule: the full
// population alternating with half of it, four cycles — enough join events
// to recycle every vacated slot more than twice at 4+ threads.
func churnPhases(cfg *WorkloadConfig) []PhaseSpec {
	half := cfg.Threads / 2
	if half < 1 {
		half = 1
	}
	ph := make([]PhaseSpec, 0, 8)
	for i := 0; i < 4; i++ {
		ph = append(ph, PhaseSpec{Live: cfg.Threads}, PhaseSpec{Live: half})
	}
	return ph
}

// rampupPhases grows the live population from one worker toward the full
// thread count, roughly doubling per phase.
func rampupPhases(cfg *WorkloadConfig) []PhaseSpec {
	var ph []PhaseSpec
	for n := 1; n < cfg.Threads; n *= 2 {
		ph = append(ph, PhaseSpec{Live: n})
	}
	return append(ph, PhaseSpec{Live: cfg.Threads})
}

// phaseShiftPhases keeps the population fixed and alternates the workload
// composition: update-heavy churn, then read-mostly quiet.
func phaseShiftPhases(*WorkloadConfig) []PhaseSpec {
	return []PhaseSpec{
		{Scenario: "paper"}, {Scenario: "read_mostly"},
		{Scenario: "paper"}, {Scenario: "read_mostly"},
	}
}
