// Package grid is the experiment grid engine: it expands declarative
// parameter sweeps (Spec) into explicit workload configurations and
// executes them through a cache-aware, resource-weighted parallel Runner
// backed by the content-addressed results store (internal/results).
//
// Trials are deterministic given WorkloadConfig + Seed, which is what makes
// cached execution sound: a store hit under a TrialKey substitutes for
// re-running the trial, so interrupted sweeps resume where they stopped and
// identical re-runs complete with zero executions.
package grid

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/bench"
	"repro/internal/ds"
	"repro/internal/simalloc"
	"repro/internal/smr"
)

// Spec declares a parameter sweep as data: the cartesian product of its
// axes expands to explicit configurations (the PRRS24 config-object idiom —
// sweeps are values you can print, hash, and re-run). Empty axes inherit
// the single value from Base.
type Spec struct {
	// Base supplies every knob the axes don't sweep (duration, key range,
	// seed, ...). A zero Base means bench.DefaultWorkload.
	Base bench.WorkloadConfig
	// The sweep axes. Expansion order is scenarios (outermost), phase
	// schedules, fault plans, arrivals, data structures, allocators,
	// threads, batch sizes, reclaimers (innermost) — fixed and documented
	// so rendered tables and stored artifacts are reproducible.
	Scenarios []string
	// PhaseSchedules is the phase-engine axis: each entry is one complete
	// schedule (see bench.PhaseSpec) applied to WorkloadConfig.Phases.
	// Empty inherits Base.Phases (usually none, i.e. unphased trials —
	// though scenarios with default schedules still phase themselves).
	PhaseSchedules [][]bench.PhaseSpec
	// FaultPlans is the fault-injection axis: each entry is one complete
	// plan (see bench.FaultSpec) applied to WorkloadConfig.Faults — a nil
	// entry is the healthy control, so one sweep can carry faulted configs
	// and their no-fault baselines side by side. Empty inherits Base.Faults.
	FaultPlans [][]bench.FaultSpec
	// Arrivals is the open-system axis: each entry is one arrival process in
	// the arrival.Parse syntax applied to WorkloadConfig.Arrival — an empty
	// string is the closed-loop control, so one sweep can carry open-system
	// configs and their closed-loop baselines side by side. Empty inherits
	// Base.Arrival.
	Arrivals       []string
	DataStructures []string
	Allocators     []string
	Threads        []int
	BatchSizes     []int
	Reclaimers     []string
	// Trials per configuration (the TrialSeeds chain); <= 0 means 1.
	Trials int
}

// withDefaults returns the spec with every zero Base knob filled from
// bench.DefaultWorkload (explicit Base values win field by field) and every
// empty axis collapsed to its Base value.
func (s Spec) withDefaults() Spec {
	base := bench.DefaultWorkload(max(s.Base.Threads, 1))
	if s.Base.Threads == 0 {
		s.Base.Threads = base.Threads
	}
	if s.Base.Scenario == "" {
		s.Base.Scenario = base.Scenario
	}
	if s.Base.DataStructure == "" {
		s.Base.DataStructure = base.DataStructure
	}
	if s.Base.Reclaimer == "" {
		s.Base.Reclaimer = base.Reclaimer
	}
	if s.Base.Allocator == "" {
		s.Base.Allocator = base.Allocator
	}
	if s.Base.KeyRange == 0 {
		s.Base.KeyRange = base.KeyRange
	}
	if s.Base.Duration == 0 {
		s.Base.Duration = base.Duration
	}
	if s.Base.BatchSize == 0 {
		s.Base.BatchSize = base.BatchSize
	}
	if s.Base.DrainRate == 0 {
		s.Base.DrainRate = base.DrainRate
	}
	if s.Base.TokenCheckK == 0 {
		s.Base.TokenCheckK = base.TokenCheckK
	}
	if s.Base.Cost.ThreadsPerSocket == 0 {
		s.Base.Cost = base.Cost
	}
	if s.Base.RecorderCap == 0 {
		s.Base.RecorderCap = base.RecorderCap
	}
	if s.Base.Seed == 0 {
		s.Base.Seed = base.Seed
	}
	if len(s.Scenarios) == 0 {
		s.Scenarios = []string{s.Base.Scenario}
	}
	if len(s.PhaseSchedules) == 0 {
		s.PhaseSchedules = [][]bench.PhaseSpec{s.Base.Phases}
	}
	if len(s.FaultPlans) == 0 {
		s.FaultPlans = [][]bench.FaultSpec{s.Base.Faults}
	}
	if len(s.Arrivals) == 0 {
		s.Arrivals = []string{s.Base.Arrival}
	}
	if len(s.DataStructures) == 0 {
		s.DataStructures = []string{s.Base.DataStructure}
	}
	if len(s.Allocators) == 0 {
		s.Allocators = []string{s.Base.Allocator}
	}
	if len(s.Threads) == 0 {
		s.Threads = []int{s.Base.Threads}
	}
	if len(s.BatchSizes) == 0 {
		s.BatchSizes = []int{s.Base.BatchSize}
	}
	if len(s.Reclaimers) == 0 {
		s.Reclaimers = []string{s.Base.Reclaimer}
	}
	return s
}

// Validate checks every axis value against the registries so a bad sweep
// fails before any trial runs, not mid-grid.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if err := validateNames("scenario", s.Scenarios, bench.Scenarios()); err != nil {
		return err
	}
	if err := validateNames("data structure", s.DataStructures, ds.Names()); err != nil {
		return err
	}
	if err := validateNames("allocator", s.Allocators, simalloc.AllocatorNames()); err != nil {
		return err
	}
	for _, r := range s.Reclaimers {
		if !smr.Known(r) { // Names() plus the registry's aliases
			return fmt.Errorf("grid: unknown reclaimer %q (have %v)", r, smr.Names())
		}
	}
	for _, n := range s.Threads {
		if n <= 0 {
			return fmt.Errorf("grid: thread count %d must be positive", n)
		}
	}
	for _, b := range s.BatchSizes {
		if b <= 0 {
			return fmt.Errorf("grid: batch size %d must be positive", b)
		}
	}
	// Schedules are checked per thread-count at expansion-compatible
	// strictness here: scenario names must resolve and counts must be
	// non-negative; the live-vs-threads bound is enforced per trial.
	for i, sched := range s.PhaseSchedules {
		for j, ph := range sched {
			if ph.Scenario != "" {
				if err := validateNames("phase scenario", []string{ph.Scenario}, bench.Scenarios()); err != nil {
					return fmt.Errorf("grid: schedule %d phase %d: %w", i, j, err)
				}
			}
			if ph.Live < 0 || ph.Ops < 0 {
				return fmt.Errorf("grid: schedule %d phase %d: negative live/ops", i, j)
			}
		}
	}
	// Fault plans are validated against every thread count they will expand
	// with, since explicit worker indices must stay in range.
	for i, plan := range s.FaultPlans {
		for _, threads := range s.Threads {
			probe := s.Base
			probe.Threads = threads
			probe.Faults = plan
			if err := bench.ValidateFaults(probe); err != nil {
				return fmt.Errorf("grid: fault plan %d (threads=%d): %w", i, threads, err)
			}
		}
	}
	for i, a := range s.Arrivals {
		if _, err := arrival.Parse(a); err != nil {
			return fmt.Errorf("grid: arrival %d: %w", i, err)
		}
	}
	if s.Base.Duration <= 0 {
		return fmt.Errorf("grid: duration %v must be positive", s.Base.Duration)
	}
	return nil
}

func validateNames(kind string, got, known []string) error {
	set := map[string]bool{}
	for _, k := range known {
		set[k] = true
	}
	for _, g := range got {
		if !set[g] {
			return fmt.Errorf("grid: unknown %s %q (have %v)", kind, g, known)
		}
	}
	return nil
}

// Size returns the number of configurations the spec expands to.
func (s Spec) Size() int {
	s = s.withDefaults()
	return len(s.Scenarios) * len(s.PhaseSchedules) * len(s.FaultPlans) *
		len(s.Arrivals) * len(s.DataStructures) * len(s.Allocators) *
		len(s.Threads) * len(s.BatchSizes) * len(s.Reclaimers)
}

// Expand materializes the cartesian product in the documented axis order.
func (s Spec) Expand() []bench.WorkloadConfig {
	s = s.withDefaults()
	cfgs := make([]bench.WorkloadConfig, 0, s.Size())
	for _, scenario := range s.Scenarios {
		for _, phases := range s.PhaseSchedules {
			for _, faults := range s.FaultPlans {
				for _, arr := range s.Arrivals {
					for _, dsName := range s.DataStructures {
						for _, alloc := range s.Allocators {
							for _, threads := range s.Threads {
								for _, batch := range s.BatchSizes {
									for _, rec := range s.Reclaimers {
										cfg := s.Base
										cfg.Scenario = scenario
										cfg.Phases = phases
										cfg.Faults = faults
										cfg.Arrival = arr
										cfg.DataStructure = dsName
										cfg.Allocator = alloc
										cfg.Threads = threads
										cfg.BatchSize = batch
										cfg.Reclaimer = rec
										cfgs = append(cfgs, cfg)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cfgs
}
