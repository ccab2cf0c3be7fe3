package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/arrival"
	"repro/internal/bench"
	"repro/internal/grid"
)

// sweepFlags are the flags a sweep's grid.Spec is built from: the axes and the
// Base knobs. A plain sweep runs the spec as is; -experiment overlays a
// figure's own axes on it.
type sweepFlags struct {
	scenarios, phases, ds, allocators, reclaimers, threads, batches, faults, arrivals string

	trials, ops int
	dur         time.Duration
	keyrange    int64
	seed        uint64
}

func (f *sweepFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.scenarios, "scenarios", "", "comma-separated scenario axis (default: paper)")
	fs.StringVar(&f.phases, "phases", "", "phase-schedule axis: schedules separated by ';', each comma-separated [scenario:]LIVExOPS (e.g. \"4x2000,2x2000;8x1000\")")
	fs.StringVar(&f.ds, "ds", "", "comma-separated data structure axis (abtree, occtree, dgtree)")
	fs.StringVar(&f.allocators, "allocators", "", "comma-separated allocator axis (jemalloc, tcmalloc, mimalloc)")
	fs.StringVar(&f.reclaimers, "reclaimers", "", "comma-separated reclaimer axis (see smr registry)")
	fs.StringVar(&f.threads, "threads", "", "comma-separated thread-count axis (default: 4; with -experiment, the paper's 6,12,24,36,48,96,144,192)")
	fs.StringVar(&f.batches, "batches", "", "comma-separated limbo batch-size axis (default: 2048)")
	fs.StringVar(&f.faults, "faults", "", "fault-plan axis: plans separated by ';', each comma-separated kind:wW@AT[~SPAN][/EVERY][xFACTOR] (empty segment or \"none\" = healthy control, e.g. \"none;stall:w0@4096\")")
	fs.StringVar(&f.arrivals, "arrivals", "", "arrival-process axis: processes separated by ';', each KIND:RATE[@PERIOD][~PARAM] (empty segment or \"none\" = closed-loop control, e.g. \"none;poisson:150000\"); see -list")
	fs.IntVar(&f.trials, "trials", 1, "trials per configuration (seed chain)")
	fs.DurationVar(&f.dur, "dur", 0, "measured window per trial (default 300ms)")
	fs.IntVar(&f.ops, "ops", 0, "run exactly N ops per thread instead of the wall-clock window (deterministic with 1 thread)")
	fs.Int64Var(&f.keyrange, "keyrange", 0, "key universe size (default 32768)")
	fs.Uint64Var(&f.seed, "seed", 0, "base RNG seed (default 1)")
}

// spec builds the sweep the flags declare. It parses and nothing else: names
// and ranges are Spec.Validate's to check. In the ';'-separated axes an empty
// segment (or "none") is a real member, the control: the unphased trial, the
// healthy plan, the closed loop. So -faults "none;stall:w0@4096" sweeps
// faulted configurations against their no-fault baselines in one grid.
func (f *sweepFlags) spec() (grid.Spec, error) {
	spec := grid.Spec{
		Base:           bench.DefaultWorkload(4),
		Scenarios:      splitAxis(f.scenarios),
		DataStructures: splitAxis(f.ds),
		Allocators:     splitAxis(f.allocators),
		Reclaimers:     splitAxis(f.reclaimers),
		Trials:         f.trials,
	}
	if strings.TrimSpace(f.phases) != "" {
		for _, sched := range strings.Split(f.phases, ";") {
			ph, err := bench.ParsePhases(sched)
			if err != nil {
				return spec, fmt.Errorf("-phases: %w", err)
			}
			spec.PhaseSchedules = append(spec.PhaseSchedules, ph)
		}
	}
	if strings.TrimSpace(f.faults) != "" {
		for _, plan := range strings.Split(f.faults, ";") {
			fs, err := bench.ParseFaults(plan)
			if err != nil {
				return spec, fmt.Errorf("-faults: %w", err)
			}
			spec.FaultPlans = append(spec.FaultPlans, fs)
		}
	}
	if strings.TrimSpace(f.arrivals) != "" {
		for _, a := range strings.Split(f.arrivals, ";") {
			sp, err := arrival.Parse(a)
			if err != nil {
				return spec, fmt.Errorf("-arrivals: %w", err)
			}
			canon := ""
			if !sp.IsZero() {
				canon = arrival.Format(sp)
			}
			spec.Arrivals = append(spec.Arrivals, canon)
		}
	}
	var err error
	if spec.Threads, err = splitInts(f.threads); err != nil {
		return spec, fmt.Errorf("-threads: %w", err)
	}
	if spec.BatchSizes, err = splitInts(f.batches); err != nil {
		return spec, fmt.Errorf("-batches: %w", err)
	}
	if f.dur > 0 {
		spec.Base.Duration = f.dur
	}
	if f.ops > 0 {
		spec.Base.FixedOps = f.ops
	}
	if f.keyrange > 0 {
		spec.Base.KeyRange = f.keyrange
	}
	if f.seed > 0 {
		spec.Base.Seed = f.seed
	}
	return spec, nil
}

func splitAxis(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitAxis(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
