package grid

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/results"
)

// tinySpec is a 2-scenario × 2-reclaimer matrix fast enough for CI.
func tinySpec() Spec {
	base := bench.DefaultWorkload(2)
	base.KeyRange = 1 << 10
	base.Duration = 15 * time.Millisecond
	base.BatchSize = 128
	return Spec{
		Base:       base,
		Scenarios:  []string{"paper", "read_mostly"},
		Reclaimers: []string{"debra", "token_af"},
		Trials:     1,
	}
}

func TestSpecExpansionOrderAndSize(t *testing.T) {
	s := Spec{
		Base:       bench.DefaultWorkload(2),
		Scenarios:  []string{"paper", "zipf"},
		Threads:    []int{2, 4},
		Reclaimers: []string{"debra", "token_af"},
	}
	cfgs := s.Expand()
	if len(cfgs) != 8 || s.Size() != 8 {
		t.Fatalf("expanded %d configs (Size %d), want 8", len(cfgs), s.Size())
	}
	// Documented order: scenario outermost, then threads, reclaimer innermost.
	want := []struct {
		scenario  string
		threads   int
		reclaimer string
	}{
		{"paper", 2, "debra"}, {"paper", 2, "token_af"},
		{"paper", 4, "debra"}, {"paper", 4, "token_af"},
		{"zipf", 2, "debra"}, {"zipf", 2, "token_af"},
		{"zipf", 4, "debra"}, {"zipf", 4, "token_af"},
	}
	for i, w := range want {
		c := cfgs[i]
		if c.Scenario != w.scenario || c.Threads != w.threads || c.Reclaimer != w.reclaimer {
			t.Fatalf("cfg[%d] = %s/t%d/%s, want %s/t%d/%s",
				i, c.Scenario, c.Threads, c.Reclaimer, w.scenario, w.threads, w.reclaimer)
		}
	}
}

func TestSpecPhaseScheduleAxis(t *testing.T) {
	churn := []bench.PhaseSpec{{Live: 2, Ops: 100}, {Live: 1, Ops: 100}}
	s := Spec{
		Base:           bench.DefaultWorkload(2),
		Scenarios:      []string{"paper", "zipf"},
		PhaseSchedules: [][]bench.PhaseSpec{nil, churn},
		Reclaimers:     []string{"debra"},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cfgs := s.Expand()
	if len(cfgs) != 4 || s.Size() != 4 {
		t.Fatalf("expanded %d configs (Size %d), want 4", len(cfgs), s.Size())
	}
	// Phases sit directly inside the scenario axis.
	for i, want := range []struct {
		scenario string
		phased   bool
	}{{"paper", false}, {"paper", true}, {"zipf", false}, {"zipf", true}} {
		c := cfgs[i]
		if c.Scenario != want.scenario || (len(c.Phases) > 0) != want.phased {
			t.Fatalf("cfg[%d] = %s phases=%v, want %s phased=%v",
				i, c.Scenario, c.Phases, want.scenario, want.phased)
		}
	}
	// Phased and unphased twins of the same config must not share keys.
	if results.GroupOf(cfgs[0]) == results.GroupOf(cfgs[1]) {
		t.Fatal("phased and unphased configs share a group key")
	}

	for _, bad := range []Spec{
		{PhaseSchedules: [][]bench.PhaseSpec{{{Scenario: "bogus"}}}},
		{PhaseSchedules: [][]bench.PhaseSpec{{{Live: -1}}}},
		{PhaseSchedules: [][]bench.PhaseSpec{{{Ops: -1}}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("bad schedule accepted: %+v", bad)
		}
	}
}

func TestSpecArrivalsAxis(t *testing.T) {
	s := Spec{
		Base:       bench.DefaultWorkload(2),
		Arrivals:   []string{"", "poisson:50000"},
		Reclaimers: []string{"debra", "hp"},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cfgs := s.Expand()
	if len(cfgs) != 4 || s.Size() != 4 {
		t.Fatalf("expanded %d configs (Size %d), want 4", len(cfgs), s.Size())
	}
	// Arrivals sit between fault plans and data structures: closed-loop
	// controls first, then the open-system configs, reclaimer innermost.
	for i, want := range []struct {
		arrival   string
		reclaimer string
	}{{"", "debra"}, {"", "hp"}, {"poisson:50000", "debra"}, {"poisson:50000", "hp"}} {
		if c := cfgs[i]; c.Arrival != want.arrival || c.Reclaimer != want.reclaimer {
			t.Fatalf("cfg[%d] = %q/%s, want %q/%s", i, c.Arrival, c.Reclaimer, want.arrival, want.reclaimer)
		}
	}
	// Open-system configs and their closed-loop controls must not share keys.
	if results.GroupOf(cfgs[0]) == results.GroupOf(cfgs[2]) {
		t.Fatal("open-system and closed-loop configs share a group key")
	}

	bad := Spec{Arrivals: []string{"poisson:-1"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("bad arrival spec accepted")
	}
}

func TestSpecEmptyAxesInheritBase(t *testing.T) {
	var s Spec
	cfgs := s.Expand()
	if len(cfgs) != 1 {
		t.Fatalf("zero spec expands to %d configs, want 1", len(cfgs))
	}
	def := bench.DefaultWorkload(cfgs[0].Threads)
	if cfgs[0].Scenario != def.Scenario || cfgs[0].Reclaimer != def.Reclaimer || cfgs[0].KeyRange != def.KeyRange {
		t.Fatalf("zero spec did not inherit defaults: %+v", cfgs[0])
	}
}

func TestSpecPartialBaseGetsDefaults(t *testing.T) {
	// A Base with only some knobs set must still validate: every zero field
	// fills from DefaultWorkload individually (no all-or-nothing sentinel).
	s := Spec{
		Base:       bench.WorkloadConfig{KeyRange: 4096, Threads: 4},
		Reclaimers: []string{"debra"},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("partial Base rejected: %v", err)
	}
	cfgs := s.Expand()
	if len(cfgs) != 1 {
		t.Fatalf("expanded %d configs", len(cfgs))
	}
	c := cfgs[0]
	if c.KeyRange != 4096 || c.Threads != 4 {
		t.Fatalf("explicit Base values lost: %+v", c)
	}
	def := bench.DefaultWorkload(4)
	if c.Scenario != def.Scenario || c.Duration != def.Duration || c.Allocator != def.Allocator {
		t.Fatalf("zero Base knobs not defaulted: %+v", c)
	}
}

func TestRunSpecNormalizesTrials(t *testing.T) {
	// Spec.Trials <= 0 means 1 chained trial (the Spec doc), not the
	// verbatim-seed convention of Run's trials <= 0 — both values must hit the same
	// store keys.
	st := results.NewMemStore()
	spec := tinySpec()
	spec.Scenarios, spec.Reclaimers = []string{"paper"}, []string{"debra"}
	spec.Trials = 1
	if _, err := (&Runner{Store: st}).RunSpec(spec); err != nil {
		t.Fatal(err)
	}
	spec.Trials = 0
	r := &Runner{Store: st}
	sums, err := r.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ex, ca := r.Counts(); ex != 0 || ca != 1 {
		t.Fatalf("trials=0 missed the trials=1 cache entry: executed=%d cached=%d", ex, ca)
	}
	if want := bench.TrialSeeds(spec.Base.Seed, 1)[0]; sums[0].Trials[0].Seed != want {
		t.Fatalf("trials=0 seed = %d, want chained %d", sums[0].Trials[0].Seed, want)
	}
}

func TestSpecValidate(t *testing.T) {
	good := tinySpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []Spec{
		{Scenarios: []string{"bogus"}},
		{Reclaimers: []string{"bogus"}},
		{DataStructures: []string{"bogus"}},
		{Allocators: []string{"bogus"}},
		{Threads: []int{0}},
		{BatchSizes: []int{-1}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("bad spec accepted: %+v", bad)
		}
	}
}

func TestRunnerCachesAndResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()

	r1 := &Runner{Store: st, Parallel: 2}
	sums1, err := r1.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex1, ca1 := r1.Counts()
	if ex1 != 4 || ca1 != 0 {
		t.Fatalf("first run: executed=%d cached=%d, want 4/0", ex1, ca1)
	}
	st.Close()

	// Re-open (as a fresh process would) and re-run the same grid: every
	// trial must come from the store.
	st2, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2 := &Runner{Store: st2, Parallel: 2}
	sums2, err := r2.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex2, ca2 := r2.Counts()
	if ex2 != 0 || ca2 != 4 {
		t.Fatalf("second run: executed=%d cached=%d, want 0/4", ex2, ca2)
	}
	for i := range sums1 {
		if sums1[i].MeanOps != sums2[i].MeanOps || sums1[i].Config.Reclaimer != sums2[i].Config.Reclaimer {
			t.Fatalf("cached summary %d diverged: %+v vs %+v", i, sums1[i], sums2[i])
		}
	}
}

func TestRunnerResumesPartialStore(t *testing.T) {
	st := results.NewMemStore()
	spec := tinySpec()
	cfgs := spec.Expand()

	// Pre-seed the store with the first config's trial, as if a previous
	// sweep was interrupted after one trial.
	pre := &Runner{Store: st}
	if _, err := pre.Run(cfgs[:1], spec.Trials); err != nil {
		t.Fatal(err)
	}

	r := &Runner{Store: st}
	if _, err := r.Run(cfgs, spec.Trials); err != nil {
		t.Fatal(err)
	}
	ex, ca := r.Counts()
	if ex != 3 || ca != 1 {
		t.Fatalf("resume: executed=%d cached=%d, want 3/1", ex, ca)
	}
}

func TestRunnerProgressStream(t *testing.T) {
	var events []Progress
	r := &Runner{
		Store:      results.NewMemStore(),
		OnProgress: func(p Progress) { events = append(events, p) },
	}
	spec := tinySpec()
	if _, err := r.RunSpec(spec); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d progress events, want 4", len(events))
	}
	last := events[len(events)-1]
	if last.Done != 4 || last.Total != 4 || last.Executed != 4 || last.FromCache {
		t.Fatalf("final event wrong: %+v", last)
	}

	// Progress counters are per-Run: a reused runner (an experiment runs
	// one batch per sweep on one runner) must restart the partition, while
	// Counts() keeps the lifetime totals.
	events = events[:0]
	if _, err := r.RunSpec(spec); err != nil {
		t.Fatal(err)
	}
	first := events[0]
	if first.Done != 1 || first.Executed+first.Cached != 1 {
		t.Fatalf("second batch's first event not per-Run: %+v", first)
	}
	if ex, ca := r.Counts(); ex+ca != 8 {
		t.Fatalf("lifetime counts = %d executed, %d cached, want 8 total", ex, ca)
	}
}

func TestRunnerBudgetClampsOversizedTrial(t *testing.T) {
	// A trial whose thread cost exceeds the whole budget must still run
	// (clamped), not deadlock.
	base := bench.DefaultWorkload(8)
	base.KeyRange = 1 << 10
	base.Duration = 10 * time.Millisecond
	base.BatchSize = 128
	r := &Runner{Parallel: 2, Budget: 2}
	sums, err := r.Run([]bench.WorkloadConfig{base, base}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].MeanOps <= 0 {
		t.Fatalf("oversized trials failed: %+v", sums)
	}
}

func TestRunnerVerbatimSeedConvention(t *testing.T) {
	cfg := bench.DefaultWorkload(2)
	cfg.KeyRange = 1 << 10
	cfg.Duration = 10 * time.Millisecond
	cfg.Seed = 77
	r := &Runner{}
	sums, err := r.Run([]bench.WorkloadConfig{cfg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sums[0].Trials[0].Seed; got != 77 {
		t.Fatalf("trials<=0 must use the seed verbatim: got %d", got)
	}
	sums, err = r.Run([]bench.WorkloadConfig{cfg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sums[0].Trials[0].Seed, bench.TrialSeeds(77, 1)[0]; got != want {
		t.Fatalf("trials=1 must use the TrialSeeds chain: got %d want %d", got, want)
	}
}

func TestRunnerSkipsStoreForRecordedTrials(t *testing.T) {
	st := results.NewMemStore()
	cfg := bench.DefaultWorkload(2)
	cfg.KeyRange = 1 << 10
	cfg.Duration = 10 * time.Millisecond
	cfg.Record = true
	cfg.RecorderCap = 1000
	r := &Runner{Store: st}
	sums, err := r.Run([]bench.WorkloadConfig{cfg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Trials[0].Recorder == nil {
		t.Fatal("recorded trial lost its recorder")
	}
	if st.Len() != 0 {
		t.Fatalf("recorded trial persisted to store (%d records)", st.Len())
	}
	// And it must re-execute, never cache-hit.
	if _, err := r.Run([]bench.WorkloadConfig{cfg}, 0); err != nil {
		t.Fatal(err)
	}
	if ex, ca := r.Counts(); ex != 2 || ca != 0 {
		t.Fatalf("recorded trials cached: executed=%d cached=%d", ex, ca)
	}
}

func TestRunnerParallelPreservesOrder(t *testing.T) {
	spec := tinySpec()
	spec.Threads = []int{2, 3}
	r := &Runner{Parallel: 4, Budget: 16}
	sums, err := r.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := spec.Expand()
	if len(sums) != len(cfgs) {
		t.Fatalf("len(sums) = %d, want %d", len(sums), len(cfgs))
	}
	for i := range sums {
		if sums[i].Config.Scenario != cfgs[i].Scenario ||
			sums[i].Config.Threads != cfgs[i].Threads ||
			sums[i].Config.Reclaimer != cfgs[i].Reclaimer {
			t.Fatalf("summary %d out of order: got %s/t%d/%s", i,
				sums[i].Config.Scenario, sums[i].Config.Threads, sums[i].Config.Reclaimer)
		}
	}
}

// TestRunnerTwinKeysExecuteOnce pins the twin-key rule: two tasks of one
// sweep that share a TrialKey — the same config listed twice, or two
// spellings Normalize folds together — run once, store one record, and the
// twin finishes as a cache hit of its sibling's record. Without a store
// there is nothing to share and every task executes.
func TestRunnerTwinKeysExecuteOnce(t *testing.T) {
	var runs sync.Map // TrialKey -> *atomic.Int32
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		n, _ := runs.LoadOrStore(results.KeyOf(cfg), new(atomic.Int32))
		n.(*atomic.Int32).Add(1)
		time.Sleep(2 * time.Millisecond) // long enough for the other drainer to reach the twin
		return bench.TrialResult{Seed: cfg.Seed, Ops: 1, OpsPerSec: 1}, nil
	})
	a := costCfg(1, 100, 1)
	b := costCfg(1, 200, 2)
	spelled := b
	spelled.Arrival = "none" // Normalize folds it to "": same key as b
	cfgs := []bench.WorkloadConfig{a, a, b, spelled}

	for _, parallel := range []int{1, 2} {
		runs.Clear()
		st := results.NewMemStore()
		var last Progress
		r := &Runner{Store: st, Parallel: parallel, OnProgress: func(p Progress) { last = p }}
		sums, err := r.Run(cfgs, 1)
		if err != nil {
			t.Fatal(err)
		}
		runs.Range(func(key, n any) bool {
			if got := n.(*atomic.Int32).Load(); got != 1 {
				t.Errorf("parallel=%d: key %v ran %d times, want 1", parallel, key, got)
			}
			return true
		})
		if keys := st.Keys(); len(keys) != 2 || st.Len() != 2 {
			t.Errorf("parallel=%d: store holds %d records under %d keys, want one record for each of 2 keys",
				parallel, st.Len(), len(keys))
		}
		for i, s := range sums {
			if len(s.Trials) != 1 {
				t.Errorf("parallel=%d: summary %d carries %d trials, want 1", parallel, i, len(s.Trials))
			}
		}
		if last.Done != 4 || last.Executed != 2 || last.Cached != 2 || last.Executed+last.Cached+last.Failed != last.Done {
			t.Errorf("parallel=%d: last progress event %+v, want 4 done = 2 executed + 2 cached", parallel, last)
		}
		if ex, ca := r.Counts(); ex != 2 || ca != 2 {
			t.Errorf("parallel=%d: Counts() = %d executed, %d cached, want 2/2", parallel, ex, ca)
		}

		// No store, nothing to share: every task runs.
		runs.Clear()
		r = &Runner{Parallel: parallel}
		if _, err := r.Run(cfgs, 1); err != nil {
			t.Fatal(err)
		}
		if ex, _ := r.Counts(); ex != 4 {
			t.Errorf("parallel=%d: storeless run executed %d of 4 tasks", parallel, ex)
		}
	}
}

// TestRunHashesEachConfigOnce pins the hashing the queue saves, with the
// counter that exists for it: through Run with a store, an executed trial
// costs three config hashes (its key at queue construction, key and group in
// the record Drain builds) plus one per configuration for the group the cost
// model is indexed by, and a cache hit costs one (its key) and nothing per
// configuration.
func TestRunHashesEachConfigOnce(t *testing.T) {
	swapRunTrial(t, okTrial)
	cfgs := []bench.WorkloadConfig{costCfg(1, 100, 1), costCfg(2, 200, 2), costCfg(1, 300, 3)}
	const trials = 8
	for _, parallel := range []int{1, 4} {
		st := results.NewMemStore()
		r := &Runner{Store: st, Parallel: parallel}
		before := results.ConfigHashes()
		if _, err := r.Run(cfgs, trials); err != nil {
			t.Fatal(err)
		}
		executed, _ := r.Counts()
		if executed != len(cfgs)*trials {
			t.Fatalf("parallel=%d: executed %d, want %d", parallel, executed, len(cfgs)*trials)
		}
		if n, limit := results.ConfigHashes()-before, int64(3*executed+len(cfgs)); n > limit {
			t.Errorf("parallel=%d: %d config hashes for %d executed trials of %d configs, want at most %d",
				parallel, n, executed, len(cfgs), limit)
		}

		r = &Runner{Store: st, Parallel: parallel}
		before = results.ConfigHashes()
		if _, err := r.Run(cfgs, trials); err != nil {
			t.Fatal(err)
		}
		_, cached := r.Counts()
		if cached != len(cfgs)*trials {
			t.Fatalf("parallel=%d: resume hit %d, want %d", parallel, cached, len(cfgs)*trials)
		}
		if n := results.ConfigHashes() - before; n > int64(cached) {
			t.Errorf("parallel=%d: %d config hashes for %d cache hits, want at most one each", parallel, n, cached)
		}
	}
}
