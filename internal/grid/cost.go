package grid

import (
	"sync"

	"repro/internal/arrival"
	"repro/internal/bench"
	"repro/internal/results"
)

// Cost estimation for sweep scheduling. A heterogeneous sweep mixes
// 1-thread quick trials with 64-thread phased fault trials; handing them
// out in raw expansion order strands parallel slots (and fast fleet
// workers) idle at the tail while the one big trial that should have
// started first runs alone. Classic longest-processing-time-first
// scheduling needs a per-trial cost, which comes in two tiers:
//
//   - StaticCost: an a-priori estimate from the configuration alone —
//     threads × total effective ops, scaled by coarse arrival/fault
//     priors. Unit-free; only the ordering matters.
//   - CostModel: the online measured model. Every completed trial stamps
//     its wall time (TrialResult.ElapsedNanos → Record.ElapsedNanos), so a
//     repeat or resumed sweep estimates each configuration group by the
//     store's own mean measured elapsed time, and a calibration ratio
//     learned from (measured / static) pairs puts never-measured configs
//     on the same scale.

// staticWallOpsPerSec converts a wall-clock window into effective ops for
// duration-bounded trials: a calibration prior, not a measurement — every
// duration trial scales by the same constant, so orderings are unaffected
// by its exact value, and the measured model overrides it as soon as real
// elapsed times exist.
const staticWallOpsPerSec = 500_000

// Coarse per-fault wall-time priors. A stall parks a worker until the
// population completes its span, a wedge usually rides to the watchdog
// deadline, a slowdown stretches its window, a crash mostly just ends one
// worker early. All deliberately mild: they break ties between a faulted
// trial and its healthy control, and the measured model replaces them.
var faultCostFactor = map[string]float64{
	"stall":    1.3,
	"wedge":    1.5,
	"slowdown": 1.2,
	"crash":    1.1,
}

// arrivalCostFactor is the open-system prior: latency accounting and
// arrival pacing add a small constant overhead over the closed loop.
const arrivalCostFactor = 1.15

// effectiveOps totals the work a configuration will run: Σ live×ops over
// the schedule bench resolves for it (its Phases, else its scenario's
// default), else the implicit phase — threads × FixedOps, or threads ×
// duration × the nominal rate for the wall-clock window.
func effectiveOps(cfg bench.WorkloadConfig) float64 {
	if phases, _ := bench.EffectivePhases(cfg); len(phases) > 0 {
		var total float64
		for _, ph := range phases {
			total += float64(ph.Live) * float64(ph.Ops)
		}
		return total
	}
	if cfg.FixedOps > 0 {
		return float64(cfg.Threads) * float64(cfg.FixedOps)
	}
	dur := cfg.Duration.Seconds()
	if dur <= 0 {
		dur = 0.3 // bench.DefaultWorkload's window
	}
	return float64(cfg.Threads) * dur * staticWallOpsPerSec
}

// StaticCost is the a-priori relative cost estimate of one trial: threads ×
// total effective ops across phases, scaled by the arrival and fault-plan
// priors. Monotone by construction — more threads or more ops never
// estimates cheaper — which is the invariant LPT ordering needs. The unit
// is arbitrary; CostModel calibrates it against measured nanoseconds.
func StaticCost(cfg bench.WorkloadConfig) float64 {
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	cost := float64(threads) * effectiveOps(cfg)
	for _, f := range cfg.Faults {
		if factor, ok := faultCostFactor[f.Kind]; ok {
			cost *= factor
		} else {
			cost *= 1.1
		}
	}
	if cfg.Arrival != "" {
		if spec, err := arrival.Parse(cfg.Arrival); err == nil && !spec.IsZero() {
			cost *= arrivalCostFactor
		}
	}
	return cost
}

// meanElapsed accumulates one configuration group's measured wall times.
type meanElapsed struct {
	sum float64
	n   int
}

// CostModel estimates per-trial cost for scheduling: the store's mean
// measured elapsed time per GroupKey when the group has run before, and
// StaticCost calibrated into nanoseconds otherwise. Safe for concurrent
// use — the runner observes completions from worker goroutines while the
// dispatcher estimates.
type CostModel struct {
	mu      sync.Mutex
	byGroup map[string]*meanElapsed
	// ratioSum/ratioN average measured-nanos ÷ static-units over every
	// observation, calibrating the static scale onto real time so measured
	// and never-measured trials sort together coherently.
	ratioSum float64
	ratioN   int
}

// NewCostModel builds a model seeded from every stored record that carries
// a measured elapsed time (nil store or no such records: pure static
// estimates until ObserveGroup feeds it). This is what makes repeat and resumed
// sweeps cost-aware for free: the store already knows how long each
// configuration really takes.
func NewCostModel(store *results.Store) *CostModel {
	m := &CostModel{byGroup: map[string]*meanElapsed{}}
	if store == nil {
		return m
	}
	for _, rec := range store.Records() {
		elapsed := rec.ElapsedNanos
		if elapsed == 0 {
			elapsed = rec.Trial.ElapsedNanos
		}
		m.ObserveGroup(rec.Group, StaticCost(rec.Config), elapsed)
	}
	return m
}

// ObserveGroup feeds one completed trial's measured wall time back into the
// model, sharpening estimates for the rest of the sweep (and, through the
// calibration ratio, for configurations that have never run). It is keyed by
// the trial's GroupKey and StaticCost: both are functions of the
// configuration with the seed zeroed, so the queue computes them once per
// configuration instead of hashing the config on every completion.
func (m *CostModel) ObserveGroup(group string, static float64, elapsedNanos int64) {
	if elapsedNanos <= 0 {
		return
	}
	elapsed := float64(elapsedNanos)
	m.mu.Lock()
	defer m.mu.Unlock()
	acc := m.byGroup[group]
	if acc == nil {
		acc = &meanElapsed{}
		m.byGroup[group] = acc
	}
	acc.sum += elapsed
	acc.n++
	if static > 0 {
		m.ratioSum += elapsed / static
		m.ratioN++
	}
}

// EstimateGroup returns the scheduling cost of one trial of a configuration
// in (approximate) nanoseconds: the group's mean measured elapsed time when
// the model has seen it (measured is then true), otherwise its StaticCost
// scaled by the learned calibration ratio (1.0 before any measurement — then
// everything is static and the ordering is still coherent). It does no
// hashing, so the queue re-estimates its whole backlog on every take for a
// map lookup per configuration.
func (m *CostModel) EstimateGroup(group string, static float64) (est float64, measured bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if acc := m.byGroup[group]; acc != nil && acc.n > 0 {
		return acc.sum / float64(acc.n), true
	}
	if m.ratioN > 0 {
		return static * (m.ratioSum / float64(m.ratioN)), false
	}
	return static, false
}
