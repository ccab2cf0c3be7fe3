package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/fleet"
	"repro/internal/grid"
	"repro/internal/results"
)

// sweepParallel is both the runner's in-flight cap and the fleet's worker
// count: one trial per P.
const sweepParallel = pinnedProcs

// sweepSpec is the sweeps' grid: 2 scenarios × 2 sets × 6 reclaimers of
// one-thread, tiny-key-range trials, so that dispatch, key hashing, JSON
// encoding and the store append — not the trials — are what can move.
func sweepSpec(sz sizing, seed uint64) grid.Spec {
	base := bench.DefaultWorkload(1)
	base.KeyRange = 512
	base.FixedOps = sz.SweepOps
	base.Seed = seed
	return grid.Spec{
		Base:           base,
		Scenarios:      []string{"paper", "read_mostly"},
		DataStructures: []string{"abtree", "occtree"},
		Reclaimers:     []string{"debra", "debra_af", "token_af", "hp", "ibr", "qsbr"},
	}
}

// sweepRun is one repeat of a sweep workload, timed from outside.
type sweepRun struct {
	trials                       int
	ops                          int64
	setup, makespan              time.Duration
	trialTime                    time.Duration // Σ ElapsedNanos of the executed trials
	cpuNanos                     int64
	allocBytes                   uint64
	executed, cached, quarantine int
	// The resume pass: the store reopened and the sweep re-run through the
	// local runner as all cache hits. resumeOpen includes results.Open. Both
	// are part of setup: host time of the repeat outside the measured sweep.
	resumeOpen, resumeRun time.Duration
	resumeExecuted        int
	// Kept for the traced run's replay loops.
	cfgs     []bench.WorkloadConfig
	perCfg   int // seeds per configuration
	records  []results.Record
	fileSize int64
	status   fleet.StatusResponse
}

func (s *sweepRun) trialsPerSec() float64 { return float64(s.trials) / s.makespan.Seconds() }

// efficiency is ROADMAP's harness efficiency: trial time over the time the
// sweep had on its parallel slots.
func (s *sweepRun) efficiency() float64 {
	return s.trialTime.Seconds() / (s.makespan.Seconds() * sweepParallel)
}

// runSweep executes one sweep repeat into a fresh file store under dir and
// checks its outcome. transport, when non-nil, carries the fleet workers'
// RPCs (the traced run passes a timing wrapper).
func runSweep(w *workload, opt options, seed uint64, tag string, transport http.RoundTripper, c *checks) (sweepRun, error) {
	var run sweepRun
	path := filepath.Join(opt.dir, fmt.Sprintf("%s-%s.jsonl", w.name, tag))

	// Set-up, part one: expansion, task keys, store, dispatch layer. Part two
	// is closing the store (and the fleet's server), part three the resume
	// pass.
	t0 := time.Now()
	spec := sweepSpec(opt.size, seed)
	run.cfgs = spec.Expand()
	run.perCfg = opt.size.LocalSeeds
	if w.fleet {
		run.perCfg = opt.size.FleetSeeds
	}
	_, tasks := grid.ExpandTasks(run.cfgs, run.perCfg, nil, 0)
	keys := make([]string, len(tasks))
	for i, t := range tasks {
		keys[i] = results.KeyOf(t.Cfg)
	}
	slices.Sort(keys)
	run.trials = len(tasks)
	store, err := results.Open(path)
	if err != nil {
		return run, err
	}
	defer store.Close() // error paths; the success path closes and checks below

	if w.fleet {
		err = run.throughFleet(store, transport, t0)
	} else {
		err = run.throughRunner(store, t0)
	}
	if err != nil {
		return run, err
	}
	run.records = store.Records()

	t1 := time.Now()
	if err := store.Close(); err != nil {
		return run, err
	}
	run.setup += time.Since(t1)

	for _, rec := range run.records {
		run.ops += rec.Trial.Ops
		run.trialTime += time.Duration(rec.ElapsedNanos)
	}
	c.attempted += run.trials
	c.failed += run.quarantine
	c.check(run.executed+run.cached == run.trials && run.quarantine == 0,
		"%s: executed %d + cached %d != %d trials, or %d quarantined", w.name, run.executed, run.cached, run.trials, run.quarantine)

	// Resume: reopen and re-run locally; every trial must be a cache hit, and
	// the store must hold exactly the expanded keys, one record each — which
	// for the fleet means its store equals the one a local sweep writes.
	t2 := time.Now()
	reopened, err := results.Open(path)
	if err != nil {
		return run, err
	}
	defer reopened.Close() // only read from here on
	t3 := time.Now()
	resume := &grid.Runner{Store: reopened, Parallel: sweepParallel, Budget: sweepParallel}
	if _, err := resume.Run(run.cfgs, run.perCfg); err != nil {
		return run, err
	}
	run.resumeRun = time.Since(t3)
	run.resumeOpen = time.Since(t2)
	run.setup += run.resumeOpen
	run.resumeExecuted, _ = resume.Counts()
	c.check(run.resumeExecuted == 0, "%s: resume pass executed %d trials", w.name, run.resumeExecuted)
	got := reopened.Keys()
	onePerKey := true
	for _, k := range got {
		onePerKey = onePerKey && len(reopened.Get(k)) == 1
	}
	c.check(slices.Equal(got, keys) && onePerKey, "%s: store keys differ from the expanded task keys, or a key has several records", w.name)
	if fi, err := os.Stat(path); err == nil {
		run.fileSize = fi.Size()
	}
	return run, nil
}

func (run *sweepRun) throughRunner(store *results.Store, t0 time.Time) error {
	runner := &grid.Runner{Store: store, Parallel: sweepParallel, Budget: sweepParallel}
	run.setup = time.Since(t0)

	alloc0 := hostAllocBytes()
	cpu0 := cpuNanos()
	start := time.Now()
	_, err := runner.Run(run.cfgs, run.perCfg)
	run.makespan = time.Since(start)
	run.cpuNanos = cpuNanos() - cpu0
	run.allocBytes = hostAllocBytes() - alloc0
	run.executed, run.cached = runner.Counts()
	run.quarantine = runner.Quarantines()
	return err
}

func (run *sweepRun) throughFleet(store *results.Store, transport http.RoundTripper, t0 time.Time) error {
	coord, err := fleet.NewCoordinator(run.cfgs, run.perCfg, fleet.CoordinatorConfig{Store: store})
	if err != nil {
		return err
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := srv.Client()
	if transport != nil {
		client = &http.Client{Transport: transport}
	}
	workers := make([]*fleet.Worker, sweepParallel)
	for i := range workers {
		workers[i] = &fleet.Worker{
			Client:   &fleet.Client{Base: srv.URL, HTTP: client, Timeout: 10 * time.Second, Seed: uint64(i + 1)},
			Runner:   &grid.Runner{},
			Name:     fmt.Sprintf("w%d", i),
			Capacity: 1,
		}
	}
	run.setup = time.Since(t0)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	alloc0 := hostAllocBytes()
	cpu0 := cpuNanos()
	start := time.Now()
	for i, wk := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = wk.Run(ctx)
		}()
	}
	wg.Wait()
	run.makespan = time.Since(start)
	run.cpuNanos = cpuNanos() - cpu0
	run.allocBytes = hostAllocBytes() - alloc0

	t1 := time.Now()
	srv.Close()
	run.setup += time.Since(t1)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	run.status = coord.Status()
	run.executed, run.cached, run.quarantine = run.status.Executed, run.status.Cached, run.status.Quarantined
	return nil
}

// measureSweep is the untraced run of a sweep workload: one discarded
// warm-up repeat, then measured repeats, repeat i based on seed
// bench.TrialSeeds(seed, n)[i].
func measureSweep(w *workload, opt options, r *result, c *checks) {
	seeds := bench.TrialSeeds(opt.seed, opt.size.MaxRepeats+1)
	if _, err := runSweep(w, opt, seeds[0], "warmup", nil, c); err != nil {
		c.check(false, "%s warm-up: %v", w.name, err)
		return
	}
	s := samples{}
	repeats(opt, func(i int) {
		run, err := runSweep(w, opt, seeds[i], fmt.Sprint(i), nil, c)
		if err != nil || run.ops == 0 {
			c.check(false, "%s repeat %d: %v", w.name, i, err)
			return
		}
		ops := float64(run.ops)
		s.add("simops_per_s", ops/run.makespan.Seconds())
		s.add("cpu_ns_per_simop", float64(run.cpuNanos)/ops)
		s.add("host_alloc_b_per_simop", float64(run.allocBytes)/ops)
		s.add("setup_s", run.setup.Seconds())
	})
	s.into(r.metrics)
	addPeakRSS(r, c)
}
