package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
)

// sizing is how much work one run does. fullSize is the benchmark; the
// tests run the same code at smokeSize.
type sizing struct {
	// Measured repeats run until the time budget is spent, but at least
	// MinRepeats and at most MaxRepeats.
	MinRepeats, MaxRepeats int
	// FixedOps is the per-thread op count of a closed-loop trial repeat.
	FixedOps int
	// OpenWindow is the measured window of an open-loop trial repeat.
	OpenWindow time.Duration
	// SweepOps is the per-trial op count of a sweep trial; LocalSeeds and
	// FleetSeeds are the seeds per configuration (24 configurations).
	SweepOps, LocalSeeds, FleetSeeds int
	// TraceRepeats traced repeats of TraceOps per thread give the per-layer
	// numbers; the same number of untraced repeats gives the overhead.
	TraceRepeats, TraceOps int
	// Par2Repeats trials of Par2Ops per thread at Threads == GOMAXPROCS.
	Par2Repeats, Par2Ops int
	// LoopCalls is the iteration count of an isolated call loop.
	LoopCalls int
}

// fullSize makes one run of any workload take about defaultSeconds of
// measured time on a 2-vCPU host: a closed-loop repeat is 2.4M simulated ops
// (≈ 0.85 s), an open-loop repeat 1.5 s, a local sweep repeat 1536 trials, a
// fleet sweep repeat 768. The time budget then gives ≈ 15 repeats of the
// closed loops and ≈ 9 of the others.
var fullSize = sizing{
	MinRepeats: 5, MaxRepeats: 40,
	FixedOps:   300000,
	OpenWindow: 1500 * time.Millisecond,
	SweepOps:   4000, LocalSeeds: 64, FleetSeeds: 32,
	TraceRepeats: 3, TraceOps: 150000,
	Par2Repeats: 16, Par2Ops: 100000,
	LoopCalls: 1 << 20,
}

const defaultSeconds = 15

// fingerprintOps is the size of the deterministic Threads=1 trial whose
// modelled counters are pinned in testdata/fingerprints.json. It is not part
// of sizing: the pinned numbers depend on it.
const fingerprintOps = 100000

type options struct {
	seed   uint64
	budget time.Duration
	trace  bool
	size   sizing
	// dir is a scratch directory for sweep stores.
	dir string
	// fingerprints is the path of the pinned fingerprints.
	fingerprints string
}

// workload is one set of inputs. The four trial workloads each fix one
// bench.WorkloadConfig; the two sweeps run the same 24 tiny configurations
// through the local grid runner or through the fleet.
type workload struct {
	name string
	// trial is non-nil for a trial workload.
	trial func(sz sizing) bench.WorkloadConfig
	// fleet selects the dispatch layer of a sweep workload.
	fleet bool
}

// trialBase is the harness's normal oversubscribed regime: 8 simulated
// threads on 2 Ps. Threads == GOMAXPROCS is bimodal on today's code (see
// README.md) and carries only the per-layer par2 diagnostic.
func trialBase() bench.WorkloadConfig {
	cfg := bench.DefaultWorkload(8)
	cfg.Allocator = "jemalloc"
	cfg.KeyRange = 1 << 15
	cfg.BatchSize = 2048
	return cfg
}

func closedLoop(scenario, set, reclaimer string) func(sizing) bench.WorkloadConfig {
	return func(sz sizing) bench.WorkloadConfig {
		cfg := trialBase()
		cfg.Scenario, cfg.DataStructure, cfg.Reclaimer = scenario, set, reclaimer
		cfg.FixedOps = sz.FixedOps
		return cfg
	}
}

// openStalledArrival is the per-worker arrival process of the open loop:
// 8 × 150000 = 1.2M offered simops/s, a little under half of what the same
// stack completes in a closed loop on a 2-vCPU host.
const (
	openStalledArrival = "poisson:150000"
	openStalledFaults  = "stall:w0@5000~20000/30000"
)

func openStalled(sz sizing) bench.WorkloadConfig {
	cfg := trialBase()
	cfg.Scenario, cfg.DataStructure, cfg.Reclaimer = "paper", "abtree", "debra"
	cfg.Arrival = openStalledArrival
	faults, err := bench.ParseFaults(openStalledFaults)
	if err != nil {
		panic(err) // a constant of this file
	}
	cfg.Faults = faults
	cfg.Record = true
	cfg.Duration = sz.OpenWindow
	cfg.Deadline = 30 * time.Second
	return cfg
}

// workloads is the benchmark's workload set, in the order of BENCHMARK.json.
var workloads = []workload{
	{name: "update_batchfree", trial: closedLoop("paper", "abtree", "debra")},
	{name: "update_amortized", trial: closedLoop("paper", "abtree", "token_af")},
	{name: "read_hazard", trial: closedLoop("read_mostly", "occtree", "hp")},
	{name: "open_stalled_recorded", trial: openStalled},
	{name: "sweep_local"},
	{name: "sweep_fleet", fleet: true},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// run executes the workload in the mode opt selects and shapes the result to
// the metric set BENCHMARK.json declares for that mode.
func (w *workload) run(opt options, spec *Spec) WorkloadOutput {
	var c checks
	r := result{metrics: map[string]Metric{}}
	switch {
	case w.trial != nil && opt.trace:
		traceTrial(w, opt, &r, &c)
	case w.trial != nil:
		measureTrial(w, opt, &r, &c)
	case opt.trace:
		traceSweep(w, opt, &r, &c)
	default:
		measureSweep(w, opt, &r, &c)
	}
	wo := WorkloadOutput{Name: w.name, Notes: r.notes, Metrics: spec.conform(opt.trace, r.metrics, &c)}
	c.finish(&wo)
	return wo
}

// result is what a mode function fills in.
type result struct {
	metrics map[string]Metric
	notes   []string
}

// runTrial runs one trial through the harness and counts it, and its
// reclaimer's conservation law, as attempts.
func runTrial(cfg bench.WorkloadConfig, c *checks) (bench.TrialResult, bool) {
	res, err := bench.RunTrial(cfg)
	ok := err == nil && res.Error == "" && res.Ops > 0
	c.check(ok, "trial seed %d: err=%v error=%q ops=%d", cfg.Seed, err, res.Error, res.Ops)
	if ok {
		c.check(res.SMR.Retired == res.SMR.Freed+res.SMR.Limbo,
			"trial seed %d: retired %d != freed %d + limbo %d", cfg.Seed, res.SMR.Retired, res.SMR.Freed, res.SMR.Limbo)
	}
	return res, ok
}

// repeats calls body with repeat indices 1, 2, ... until the time budget is
// spent, within [MinRepeats, MaxRepeats]. Index 0 is the caller's warm-up.
func repeats(opt options, body func(i int)) {
	start := time.Now()
	for i := 1; i <= opt.size.MaxRepeats && (i <= opt.size.MinRepeats || time.Since(start) < opt.budget); i++ {
		body(i)
	}
}

// measureTrial is the untraced run of a trial workload: one discarded
// warm-up repeat, then measured repeats, repeat i seeded with
// bench.TrialSeeds(seed, n)[i]. Nothing is best-of: every metric is the
// median over the repeats, with its quartiles.
func measureTrial(w *workload, opt options, r *result, c *checks) {
	cfg := w.trial(opt.size)
	checkFingerprint(w, opt, c)
	seeds := bench.TrialSeeds(opt.seed, opt.size.MaxRepeats+1)
	cfg.Seed = seeds[0]
	runTrial(cfg, c)

	s := samples{}
	var achieved []float64
	repeats(opt, func(i int) {
		cfg.Seed = seeds[i]
		alloc0 := hostAllocBytes()
		cpu0 := cpuNanos()
		res, ok := runTrial(cfg, c)
		cpu := cpuNanos() - cpu0
		alloc := hostAllocBytes() - alloc0
		if !ok {
			return
		}
		ops := float64(res.Ops)
		s.add("simops_per_s", ops/res.Wall.Seconds())
		s.add("cpu_ns_per_simop", float64(cpu)/ops)
		s.add("host_alloc_b_per_simop", float64(alloc)/ops)
		// Host time outside the measured window: stack build, prefill,
		// snapshot and drain.
		s.add("setup_s", (time.Duration(res.ElapsedNanos) - res.Wall).Seconds())
		if cfg.Arrival != "" {
			achieved = append(achieved, res.OpsPerSec/offeredPerSec(cfg))
		}
	})
	if cfg.Arrival != "" {
		checkBacklog(achieved, c)
	}
	s.into(r.metrics)
	addPeakRSS(r, c)
}

// checkBacklog fails an open-loop run whose repeats completed, at the
// median, under 95 % of what was offered: the queue was growing, so the
// latencies describe the length of the window and not the system. A healthy
// repeat completes ≈ 99 % (the stalled worker's own arrivals are dropped
// while it is parked, by design). The median is checked, not each repeat: a
// host hiccup in the last milliseconds of one window strands a backlog that
// says nothing about the code.
func checkBacklog(achievedShares []float64, c *checks) {
	if len(achievedShares) == 0 {
		return
	}
	_, med, _ := quartiles(achievedShares)
	c.check(med >= minAchievedShare, backlogFailure+": completed %.3f of the offered simops at the median", med)
}

const (
	minAchievedShare = 0.95
	backlogFailure   = "open-loop backlog growing"
)

func addPeakRSS(r *result, c *checks) {
	rss, err := peakRSSMiB()
	c.check(err == nil, "peak RSS: %v", err)
	if err == nil {
		r.metrics["host_peak_rss_mib"] = single(rss)
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
