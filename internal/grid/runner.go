package grid

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/results"
)

// Progress is one streamed runner event: a trial finished (from cache,
// execution, or permanent failure). Counters are cumulative over the Run
// call.
type Progress struct {
	// Done/Total count trials, not configs (each config contributes one
	// trial per chained seed).
	Done, Total int
	// Executed/Cached/Failed partition Done. A failed trial exhausted its
	// retries (or hit a cached quarantine record) — the sweep kept going.
	Executed, Cached, Failed int
	// Key and Config identify the trial that just completed.
	Key    string
	Config bench.WorkloadConfig
	// FromCache is true when the trial was satisfied from the store —
	// including a cached quarantine record (then Err is also set).
	FromCache bool
	// Err is the permanent failure for a failed trial, nil otherwise.
	Err error
	// Attempts is how many executions this trial took (0 for cache hits).
	Attempts int
}

// Runner executes expanded configuration batches. Completed trials are
// looked up in — and appended to — Store (when set), so a re-run of the
// same grid against the same store executes nothing, and an interrupted
// sweep resumes from its last flushed record.
//
// The runner survives bad trials: a panic is recovered into an error, an
// error is retried up to Retries times with doubling Backoff, and a
// permanent failure is quarantined — persisted to the store as a
// quarantine record (so resume skips it), reported through OnProgress, and
// excluded from summaries — while the rest of the sweep keeps running. Run
// returns an error only for infrastructure failures (store appends) or
// when every trial failed.
//
// Concurrency is bounded two ways: Parallel caps in-flight trials, and each
// in-flight trial additionally holds cfg.Threads tokens of the global
// Budget. A 192-thread trial next to a 2-thread trial costs 96× more of
// the budget, so concurrent trials cannot oversubscribe the host — which
// would stretch every measured wall clock and distort the modeled-cost
// percentages that are normalized against it.
type Runner struct {
	// Store caches and persists trials; nil disables caching. Trials with
	// Record set always execute and are never stored: a timeline cannot be
	// replayed from a JSONL record.
	Store *results.Store
	// Parallel is the in-flight trial cap; <= 0 means 1 (strictly serial,
	// in expansion order — the bit-compatible default).
	Parallel int
	// Budget is the thread-token pool; <= 0 means GOMAXPROCS. A trial
	// needing more tokens than the whole budget is clamped to it (it then
	// runs alone).
	Budget int
	// OnProgress, when set, receives one event per completed trial. Calls
	// are serialized.
	OnProgress func(Progress)

	// Deadline is the default per-trial watchdog deadline, applied to every
	// config that doesn't set its own. Zero leaves configs as they are
	// (no watchdog unless the config arms one).
	Deadline time.Duration
	// Retries is how many times a failed trial is re-executed before it is
	// quarantined; 0 means fail on the first error. Trials are deterministic,
	// so retries mainly cover scheduling-sensitive faults (a wedge needs the
	// goroutine interleaving to line up) and host-side flakes.
	Retries int
	// Backoff is the sleep before the first retry (doubling per attempt);
	// <= 0 means 50ms.
	Backoff time.Duration

	mu          sync.Mutex
	executed    int
	cached      int
	quarantined int
}

// Counts reports the cumulative executed/cached trial counts across every
// Run on this runner.
func (r *Runner) Counts() (executed, cached int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed, r.cached
}

// Quarantines reports the cumulative permanently-failed trial count across
// every Run on this runner (fresh quarantines and cached quarantine hits).
func (r *Runner) Quarantines() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quarantined
}

// runTrial is the trial executor, a variable so resilience tests can swap
// in doubles that panic, fail N times, or wedge.
var runTrial = bench.RunTrial

// runTrialSafe converts a panicking trial into an error, so one panicking
// configuration cannot kill the whole sweep's process.
func runTrialSafe(cfg bench.WorkloadConfig) (tr bench.TrialResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("grid: trial panicked: %v", p)
		}
	}()
	return runTrial(cfg)
}

// executeTrial is the shared per-trial path: run with panic recovery, retry
// with seeded-jitter doubling backoff up to the runner's Retries budget, and
// report how many attempts it took. The backoff sleep is context-cancellable
// — an aborted sweep (or a fleet worker told to stop) returns ctx.Err()
// immediately instead of hanging out its doubling waits. The jitter stream
// is seeded from the trial's own seed, so retry timing is as reproducible as
// the trial itself while distinct trials never retry in lockstep.
func (r *Runner) executeTrial(ctx context.Context, cfg bench.WorkloadConfig) (bench.TrialResult, int, error) {
	attempts := 1 + r.Retries
	if attempts < 1 {
		attempts = 1
	}
	bo := NewBackoff(r.Backoff, cfg.Seed)
	var (
		tr   bench.TrialResult
		terr error
	)
	n := 0
	for n < attempts {
		tr, terr = runTrialSafe(cfg)
		n++
		if terr == nil {
			break
		}
		if n < attempts {
			if err := bo.Sleep(ctx); err != nil {
				return tr, n, err
			}
		}
	}
	return tr, n, terr
}

// TrialTask is one expanded per-trial unit of work: the effective config
// (runner defaults applied, seed chained) plus the indices tying it back to
// the input config list for summary assembly.
type TrialTask struct {
	CfgIdx, TrialIdx int
	Cfg              bench.WorkloadConfig
}

// ExpandTasks applies the runner-level default watchdog deadline to each
// config, then expands the TrialSeeds chain convention (trials >= 1 chains
// seeds; trials <= 0 uses each config's seed verbatim) into per-trial tasks.
// It returns the effective configs alongside the tasks. This is the
// claim-source contract shared by the in-process Runner and the fleet
// coordinator: both must derive identical task lists — and therefore
// identical TrialKeys — from the same spec, or distributed caching would be
// unsound. The third parameter is ignored: it was the default fault plan,
// which no caller has set since a plan became a Spec axis, and it stays only
// because benchmark/ calls the four-argument form.
func ExpandTasks(cfgs []bench.WorkloadConfig, trials int, _ []bench.FaultSpec, defDeadline time.Duration) ([]bench.WorkloadConfig, []TrialTask) {
	eff := make([]bench.WorkloadConfig, len(cfgs))
	var tasks []TrialTask
	for i, cfg := range cfgs {
		if cfg.Deadline == 0 {
			cfg.Deadline = defDeadline
		}
		eff[i] = cfg
		seeds := []uint64{cfg.Seed}
		if trials >= 1 {
			seeds = bench.TrialSeeds(cfg.Seed, trials)
		}
		for j, seed := range seeds {
			c := cfg
			c.Seed = seed
			tasks = append(tasks, TrialTask{CfgIdx: i, TrialIdx: j, Cfg: c})
		}
	}
	return eff, tasks
}

// Run executes one batch: trials >= 1 runs the seed chain (bench.TrialSeeds)
// per config, trials <= 0 runs a single trial per config with the seed used
// verbatim (the single-point experiments' convention, kept distinct so every
// RNG stream stays what it was). Summaries are returned in input order
// regardless of execution order.
//
// With Parallel <= 1 trials run strictly in expansion order — the
// bit-compatibility contract the golden baselines pin; otherwise in
// descending estimated cost (longest-processing-time-first, estimates read
// from the live model at every start) with budget-aware backfill, which
// minimizes sweep makespan on heterogeneous grids.
func (r *Runner) Run(cfgs []bench.WorkloadConfig, trials int) ([]results.Summary, error) {
	return r.run(cfgs, trials, r.Parallel <= 1)
}

// run is the one path from configs to summaries: expand, queue, drain. The
// order is the code's choice, not the user's (see Run); it is a parameter
// only so the makespan test can run its control arm — expansion order at
// Parallel > 1.
func (r *Runner) run(cfgs []bench.WorkloadConfig, trials int, expansionOrder bool) ([]results.Summary, error) {
	// The runner's default deadline applies inside ExpandTasks; it is
	// normalized out of keys.
	eff, tasks := ExpandTasks(cfgs, trials, nil, r.Deadline)
	var model *CostModel
	if !expansionOrder {
		// Only cost order reads the model, so a serial run skips the store
		// scan NewCostModel does.
		model = NewCostModel(r.Store)
	}
	src := &queueSource{r: r, q: newQueue(eff, tasks, r.Store, model), budget: r.Budget}
	src.cond = sync.NewCond(&src.mu)
	src.tally.total = len(tasks)
	if src.budget <= 0 {
		src.budget = runtime.GOMAXPROCS(0)
	}
	src.free = src.budget
	// Store hits were finished by the queue; they cost no drainer, no tokens
	// and one hash each. A stored quarantine is a hit too: a resumed sweep
	// skips the key instead of re-wedging on it.
	for i := range tasks {
		if src.q.Finished(i) {
			src.hit(i)
		}
	}

	dctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Drainers waiting for tokens sleep on the cond, which a context cannot
	// reach by itself.
	defer context.AfterFunc(dctx, func() {
		src.mu.Lock()
		defer src.mu.Unlock()
		src.cond.Broadcast()
	})()
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error // a store failure: what stopped the first drainer to stop
	)
	for range max(r.Parallel, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.drain(dctx, &drainer{queueSource: src}, &src.tally); err != nil {
				once.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if src.tally.failed == len(tasks) && len(tasks) > 0 {
		// Nothing at all succeeded: the sweep produced no data, which is an
		// error (partial failure is not — quarantines carry the details).
		return nil, fmt.Errorf("grid: all %d trials failed (first: %s)", len(tasks), results.Label(tasks[0].Cfg))
	}
	return src.q.Summaries(), nil
}

// queueSource is what the drainers of one Run share: the queue, the lock
// that serializes it, the thread-token budget, and the run's tally. Each
// in-flight trial holds cfg.Threads tokens, clamped to the whole budget.
type queueSource struct {
	r      *Runner
	mu     sync.Mutex
	cond   *sync.Cond // signalled when tokens come back or the run is canceled
	q      *Queue
	budget int
	free   int
	tally  tally
}

// hit reports task i, finished from the store or by a twin's record, as a
// cache hit (of a quarantine record, when it has no result).
func (s *queueSource) hit(i int) {
	var err error
	if slot := &s.q.slots[i]; !slot.ok {
		err = fmt.Errorf("grid: %s: quarantined: %s", results.Label(s.q.Config(i)), slot.failure)
	}
	s.r.report(&s.tally, s.q.Key(i), s.q.Config(i), true, err, 0)
}

// drainer is one drainer's Source over the shared queueSource; between Next
// and Complete it remembers which task it runs and the tokens it holds.
type drainer struct {
	*queueSource
	task, held int
}

// Next takes the costliest pending trial that fits the free tokens — the
// head of the order when its tokens are free, otherwise whatever lets a slot
// stay busy instead of idling behind a trial that waits for tokens — and
// waits for a completion when nothing fits. An idle host fits anything: a
// trial wider than the whole budget is clamped to it and runs alone.
func (d *drainer) Next(ctx context.Context) (bench.WorkloadConfig, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return bench.WorkloadConfig{}, false, err
		}
		if d.q.Pending() == 0 {
			// What is still unfinished is running under another drainer.
			return bench.WorkloadConfig{}, false, nil
		}
		i, ok := 0, false
		switch {
		case d.free == d.budget:
			i, ok = d.q.Take(0) // idle host: no limit
		case d.free > 0:
			i, ok = d.q.Take(d.free)
		}
		if !ok {
			d.cond.Wait()
			continue
		}
		if d.q.shadowed(i) {
			// A twin under the same key is running: leave this task taken,
			// and the twin's completion finishes it as a cache hit.
			continue
		}
		cfg := d.q.Config(i)
		d.task, d.held = i, min(max(cfg.Threads, 1), d.budget)
		d.free -= d.held
		return cfg, true, nil
	}
}

// Complete finishes the drainer's task in the queue — one append per key —
// and returns its tokens. Twins the record finished are reported here, as
// cache hits; the trial that ran is reported by drain. A trial that
// completed is stored even when ctx is done by now: the sweep resumes from
// it.
func (d *drainer) Complete(_ context.Context, _ bench.WorkloadConfig, rec results.Record) error {
	d.mu.Lock()
	twins, err := d.q.Finish(d.task, rec)
	d.free += d.held
	d.cond.Broadcast()
	d.mu.Unlock()
	if err != nil {
		return fmt.Errorf("grid: %s: %w", d.q.Label(d.task), err)
	}
	for _, i := range twins {
		if i != d.task {
			d.hit(i)
		}
	}
	return nil
}

// Source is a claim source: a stream of already-effective trial
// configurations a drainer executes one at a time, with a completion
// channel back to whoever issued the claim. It abstracts where the sweep's
// Queue lives — in this process behind Run, or behind a fleet coordinator
// that leases its trials over the network (internal/fleet) — while the
// per-trial execution path (panic recovery, watchdog, bounded retry with
// cancellable jittered backoff) is the same code: Drain.
//
// Configs arrive effective: defaults, fault plans, and chained seeds were
// applied by whoever expanded the sweep (ExpandTasks), so Drain runs them
// verbatim — re-applying defaults here could silently change TrialKeys and
// break distributed caching.
type Source interface {
	// Next returns the next trial to execute. ok=false means the source has
	// nothing left to hand out and Drain should return nil. An error means
	// the source is unreachable or shutting down; Drain returns it.
	Next(ctx context.Context) (cfg bench.WorkloadConfig, ok bool, err error)
	// Complete delivers the finished trial's record — a regular record for a
	// success, a quarantine record for a permanent failure. The source owns
	// persistence and dedupe.
	Complete(ctx context.Context, cfg bench.WorkloadConfig, rec results.Record) error
}

// Drain pulls trials from src until it is exhausted. It is the only place a
// trial is executed and turned into a results.Record: run with panic
// recovery and bounded retry, build the record (or, after a permanent
// failure, the quarantine record — the sweep never stops for one bad
// configuration), hand it to src.Complete, count it, report it. Run starts
// Parallel drains over its own queue; a fleet worker is one drain over a
// coordinator's, so the coordinator's lease accounting — not a hidden
// in-process queue — is the single source of truth about in-flight work.
// Progress events from a Drain call carry Total == 0, since a claim source's
// size is unknown to the worker.
func (r *Runner) Drain(ctx context.Context, src Source) error {
	return r.drain(ctx, src, &tally{})
}

func (r *Runner) drain(ctx context.Context, src Source, t *tally) error {
	for {
		cfg, ok, err := src.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		tr, attempts, terr := r.executeTrial(ctx, cfg)
		if terr != nil && ctx.Err() != nil && terr == ctx.Err() {
			// The backoff was canceled mid-retry: the failure was never
			// final, so no quarantine is reported — the sweep resumes (or
			// the claim's lease expires and is re-issued) with the trial
			// still to run.
			return terr
		}
		var rec results.Record
		if terr != nil {
			rec = results.NewQuarantine(cfg, tr, terr)
			terr = fmt.Errorf("grid: %s: %w", results.Label(cfg), terr)
		} else {
			rec = results.NewRecord(cfg, tr)
		}
		// NewRecord drops the timeline because a stored record cannot replay
		// it; an in-process source still owes it to the run's summaries, and
		// it never serializes (json:"-").
		rec.Trial.Recorder = tr.Recorder
		if err := src.Complete(ctx, cfg, rec); err != nil {
			return err
		}
		r.report(t, rec.Key, cfg, false, terr, attempts)
	}
}

// tally is the partition of finished trials behind one run's Progress
// events. Every drainer of a Run shares one, so its lock is also what
// serializes OnProgress.
type tally struct {
	mu                             sync.Mutex
	total                          int
	done, executed, cached, failed int
}

// report counts one finished trial — in the run's tally and in the runner's
// lifetime totals — and streams its Progress event.
func (r *Runner) report(t *tally, key string, cfg bench.WorkloadConfig, fromCache bool, err error, attempts int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	r.mu.Lock()
	switch {
	case err != nil:
		t.failed++
		r.quarantined++
	case fromCache:
		t.cached++
		r.cached++
	default:
		t.executed++
		r.executed++
	}
	r.mu.Unlock()
	if r.OnProgress != nil {
		r.OnProgress(Progress{
			Done: t.done, Total: t.total,
			Executed: t.executed, Cached: t.cached, Failed: t.failed,
			Key: key, Config: cfg, FromCache: fromCache,
			Err: err, Attempts: attempts,
		})
	}
}

// RunSpec expands and validates a spec, then runs it. Spec.Trials <= 0 is
// normalized to 1 here (with the TrialSeeds chain, matching the Spec
// doc); the verbatim-seed trials<=0 convention belongs to Run only.
func (r *Runner) RunSpec(s Spec) ([]results.Summary, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	trials := s.Trials
	if trials <= 0 {
		trials = 1
	}
	return r.Run(s.Expand(), trials)
}
