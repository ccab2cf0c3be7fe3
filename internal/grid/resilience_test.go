package grid

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/results"
)

// swapRunTrial installs a trial-executor double and restores the real one
// at test end. Resilience tests are serial (no t.Parallel): runTrial is a
// package variable.
func swapRunTrial(t *testing.T, fn func(bench.WorkloadConfig) (bench.TrialResult, error)) {
	t.Helper()
	old := runTrial
	runTrial = fn
	t.Cleanup(func() { runTrial = old })
}

func okTrial(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
	return bench.TrialResult{Scenario: cfg.Scenario, Seed: cfg.Seed, Ops: 1}, nil
}

// twoConfigs returns two distinct tiny configs; the second one is the one
// doubles key their misbehavior off (Reclaimer "hp").
func twoConfigs() []bench.WorkloadConfig {
	a := bench.DefaultWorkload(2)
	a.KeyRange = 1 << 10
	a.FixedOps = 50
	a.Reclaimer = "debra"
	b := a
	b.Reclaimer = "hp"
	return []bench.WorkloadConfig{a, b}
}

// TestRunnerSurvivesPanickingTrial: one config panics every attempt; the
// sweep must finish, quarantine that config, and still summarize the other.
func TestRunnerSurvivesPanickingTrial(t *testing.T) {
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		if cfg.Reclaimer == "hp" {
			panic("injected panic")
		}
		return okTrial(cfg)
	})
	var failures []Progress
	r := &Runner{OnProgress: func(p Progress) {
		if p.Err != nil {
			failures = append(failures, p)
		}
	}}
	sums, err := r.Run(twoConfigs(), 1)
	if err != nil {
		t.Fatalf("sweep died on a panicking trial: %v", err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0].Err.Error(), "panicked") {
		t.Fatalf("failures = %+v, want one panic-quarantine", failures)
	}
	if sums[0].Config.Reclaimer != "debra" || sums[0].Trials == nil {
		t.Fatalf("healthy config not summarized: %+v", sums[0])
	}
	if sums[1].Config.Reclaimer != "hp" || sums[1].Trials != nil {
		t.Fatalf("panicking config should yield a zero summary, got %+v", sums[1])
	}
	if r.Quarantines() != 1 {
		t.Fatalf("Quarantines() = %d, want 1", r.Quarantines())
	}
}

// TestRunnerRetriesThenSucceeds: a double that fails twice then succeeds
// must survive with Retries=2, and the progress event reports the attempts.
func TestRunnerRetriesThenSucceeds(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		if cfg.Reclaimer != "hp" {
			return okTrial(cfg)
		}
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 2 {
			return bench.TrialResult{}, errors.New("transient wedge")
		}
		return okTrial(cfg)
	})
	var last Progress
	r := &Runner{
		Retries: 2, Backoff: time.Millisecond,
		OnProgress: func(p Progress) {
			if p.Config.Reclaimer == "hp" {
				last = p
			}
		},
	}
	sums, err := r.Run(twoConfigs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if last.Err != nil {
		t.Fatalf("flaky trial still failed after retries: %v", last.Err)
	}
	if last.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two failures + success)", last.Attempts)
	}
	if sums[1].Trials == nil {
		t.Fatal("flaky config missing from summaries")
	}
	if r.Quarantines() != 0 {
		t.Fatalf("Quarantines() = %d, want 0", r.Quarantines())
	}
}

// TestRunnerRetriesExhaustedQuarantines: with Retries=1 a double that always
// fails is executed exactly twice, then quarantined.
func TestRunnerRetriesExhaustedQuarantines(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		if cfg.Reclaimer != "hp" {
			return okTrial(cfg)
		}
		mu.Lock()
		calls++
		mu.Unlock()
		return bench.TrialResult{}, errors.New("permanent wedge")
	})
	var last Progress
	r := &Runner{
		Retries: 1, Backoff: time.Millisecond,
		OnProgress: func(p Progress) {
			if p.Config.Reclaimer == "hp" {
				last = p
			}
		},
	}
	if _, err := r.Run(twoConfigs(), 1); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("executions = %d, want 2 (initial + 1 retry)", calls)
	}
	if last.Err == nil || last.Attempts != 2 {
		t.Fatalf("progress = %+v, want failure after 2 attempts", last)
	}
}

// TestRunnerQuarantineResume: a quarantined trial is persisted to the store
// and a resumed sweep skips it — executed=0, the quarantine surfaces as a
// cached failure, and the healthy config comes from cache too.
func TestRunnerQuarantineResume(t *testing.T) {
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		if cfg.Reclaimer == "hp" {
			return bench.TrialResult{Error: "wedged"}, errors.New("wedged")
		}
		return okTrial(cfg)
	})
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	r1 := &Runner{Store: st}
	if _, err := r1.Run(twoConfigs(), 1); err != nil {
		t.Fatal(err)
	}
	ex, _ := r1.Counts()
	if ex != 1 || r1.Quarantines() != 1 {
		t.Fatalf("first run: executed=%d quarantined=%d, want 1/1", ex, r1.Quarantines())
	}

	// Resume against the same store: nothing executes — including the
	// quarantined key, which must NOT re-wedge.
	executions := 0
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		executions++
		return okTrial(cfg)
	})
	var cachedFail int
	r2 := &Runner{Store: st, OnProgress: func(p Progress) {
		if p.FromCache && p.Err != nil {
			cachedFail++
			if !strings.Contains(p.Err.Error(), "quarantined") {
				t.Errorf("cached failure error = %v, want quarantined", p.Err)
			}
		}
	}}
	sums, err := r2.Run(twoConfigs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if executions != 0 {
		t.Fatalf("resume executed %d trials, want 0", executions)
	}
	ex2, ca2 := r2.Counts()
	if ex2 != 0 || ca2 != 1 || r2.Quarantines() != 1 || cachedFail != 1 {
		t.Fatalf("resume: executed=%d cached=%d quarantined=%d cachedFail=%d, want 0/1/1/1",
			ex2, ca2, r2.Quarantines(), cachedFail)
	}
	if sums[0].Trials == nil || sums[1].Trials != nil {
		t.Fatalf("resume summaries wrong: healthy=%d quarantined=%d trials", len(sums[0].Trials), len(sums[1].Trials))
	}
}

// TestRunnerAllFailedIsError: a sweep that produces no data at all must say
// so instead of returning empty summaries.
func TestRunnerAllFailedIsError(t *testing.T) {
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		return bench.TrialResult{}, errors.New("nope")
	})
	r := &Runner{}
	if _, err := r.Run(twoConfigs(), 1); err == nil || !strings.Contains(err.Error(), "all 2 trials failed") {
		t.Fatalf("err = %v, want all-trials-failed", err)
	}
}

// TestRunnerDefaultsApplyBeforeKeys: the runner-level Deadline lands on
// configs that don't set their own and is normalized out of keys; a
// config's fault plan is hashed into its key.
func TestRunnerDefaultsApplyBeforeKeys(t *testing.T) {
	var seen []bench.WorkloadConfig
	var mu sync.Mutex
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		mu.Lock()
		seen = append(seen, cfg)
		mu.Unlock()
		return okTrial(cfg)
	})
	plan, err := bench.ParseFaults("stall:w0@64")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	r := &Runner{
		Deadline:   5 * time.Second,
		OnProgress: func(p Progress) { keys = append(keys, p.Key) },
	}
	cfgs := twoConfigs()
	bare := cfgs[0]
	for i := range cfgs {
		cfgs[i].Faults = plan
	}
	// trials <= 0 uses seeds verbatim, so the test can compute keys itself.
	if _, err := r.Run(cfgs, 0); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range seen {
		if bench.FormatFaults(cfg.Faults) != "stall:w0@64" || cfg.Deadline != 5*time.Second {
			t.Fatalf("defaults not applied: faults=%s deadline=%v",
				bench.FormatFaults(cfg.Faults), cfg.Deadline)
		}
	}
	// The progress key is the key of the config as given (the deadline the
	// runner added is not hashed), and not the bare config's — that is what
	// makes cache lookups sound.
	if keys[0] != results.KeyOf(cfgs[0]) {
		t.Fatalf("progress key %s is not the faulted config's key %s", keys[0], results.KeyOf(cfgs[0]))
	}
	if keys[0] == results.KeyOf(bare) {
		t.Fatal("fault plan did not change the trial key")
	}
}

// TestRunnerEndToEndWedgeQuarantine drives the real bench.RunTrial — no
// double — through a sweep where one config wedges: the watchdog aborts it,
// the runner quarantines it, and the healthy configs complete.
func TestRunnerEndToEndWedgeQuarantine(t *testing.T) {
	base := bench.DefaultWorkload(2)
	base.KeyRange = 1 << 10
	base.FixedOps = 5000
	base.Deadline = 250 * time.Millisecond
	healthy := base
	wedged := base
	plan, err := bench.ParseFaults("wedge:w0@256")
	if err != nil {
		t.Fatal(err)
	}
	wedged.Faults = plan

	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := &Runner{Store: st}
	// trials <= 0 uses seeds verbatim, so KeyOf(wedged) below matches the
	// stored record.
	sums, err := r.Run([]bench.WorkloadConfig{healthy, wedged}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Quarantines() != 1 {
		t.Fatalf("Quarantines() = %d, want 1", r.Quarantines())
	}
	if sums[0].Trials == nil {
		t.Fatal("healthy config missing from summaries")
	}
	if sums[1].Trials != nil {
		t.Fatal("wedged config should have no successful trials")
	}
	// The persisted quarantine record carries the abort reason.
	recs := st.Get(results.KeyOf(wedged))
	if len(recs) != 1 || !recs[0].Quarantined || !strings.Contains(recs[0].Error, "watchdog") {
		t.Fatalf("quarantine record = %+v", recs)
	}
}
