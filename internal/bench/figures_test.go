package bench_test

// The paper's tables and figures live in internal/experiments, which sits
// above this package and internal/grid. Their end-to-end tests stay here, as
// an external test package, under the names CI and earlier PRs know them by:
// they are what exercises the trial path through every figure's configuration.

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/results"
	"repro/internal/smr"
)

// smokeFlags is the spec epochgrid's flags would build for a run shrunk to
// seconds in total: the given thread sweep, 20 ms windows, 1 trial, a tiny key
// range, and a small recorder capacity (several figures name up to 240-thread
// panels, whose default 100k-events-per-thread recorders would preallocate
// hundreds of MiB).
func smokeFlags(threads ...int) grid.Spec {
	base := bench.DefaultWorkload(4)
	base.Duration = 20 * time.Millisecond
	base.KeyRange = 1 << 10
	base.RecorderCap = 2000
	return grid.Spec{Base: base, Threads: threads, BatchSizes: []int{128}, Trials: 1}
}

// runExperiment resolves id at the given flags and at-thread count and runs it
// through a fresh serial runner.
func runExperiment(t *testing.T, id string, flags grid.Spec, at int) string {
	t.Helper()
	e, ok := experiments.Get(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	e, err := e.Resolve(flags, at)
	if err != nil {
		t.Fatal(err)
	}
	report, _, err := e.Run(&grid.Runner{})
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestExperimentRegistrySmoke runs every experiment of the table through a
// real grid.Runner against a store, twice: no error and a non-empty report,
// and a second pass that executes only the recorded trials (a timeline cannot
// be replayed from a record) and serves the rest from the store. It is the
// only test that exercises the full experiment surface, so it runs in the
// regular CI test job and is skipped under -short (the -race job).
func TestExperimentRegistrySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke is slow; skipped under -short")
	}
	for _, id := range experiments.IDs() {
		t.Run(id, func(t *testing.T) {
			e, _ := experiments.Get(id)
			e, err := e.Resolve(smokeFlags(2), 2)
			if err != nil {
				t.Fatal(err)
			}
			trials, recorded := 0, 0
			for _, sw := range e.Sweeps {
				_, tasks := grid.ExpandTasks(sw.Expand(), sw.RunTrials(), nil, 0)
				trials += len(tasks)
				if sw.Base.Record {
					recorded += len(tasks)
				}
			}
			st, err := results.Open(filepath.Join(t.TempDir(), "store.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for pass, wantExecuted := range []int{trials, recorded} {
				r := &grid.Runner{Store: st}
				report, sums, err := e.Run(r)
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if report == "" || len(sums) == 0 {
					t.Fatalf("pass %d: empty report", pass)
				}
				if executed, cached := r.Counts(); executed != wantExecuted || executed+cached != trials {
					t.Fatalf("pass %d: executed=%d cached=%d, want %d of %d executed", pass, executed, cached, wantExecuted, trials)
				}
			}
		})
	}
}

// TestExp1GridExpansionOrder pins that exp1 expands rows-major — threads
// outer, Experiment1Names inner — so a serial run executes its trials in the
// order the rendered table reads (bit-compatible with the former inline loop).
func TestExp1GridExpansionOrder(t *testing.T) {
	e, _ := experiments.Get("exp1")
	e, err := e.Resolve(smokeFlags(2, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	sweeps := e.Sweeps
	if len(sweeps) != 1 || sweeps[0].Point {
		t.Fatalf("exp1 resolved to %d sweeps (point=%v), want one chained sweep", len(sweeps), sweeps[0].Point)
	}
	names := smr.Experiment1Names()
	cfgs := sweeps[0].Expand()
	if len(cfgs) != 2*len(names) {
		t.Fatalf("expanded %d configs, want %d", len(cfgs), 2*len(names))
	}
	idx := 0
	for _, n := range []int{2, 4} {
		for _, name := range names {
			if cfgs[idx].Threads != n || cfgs[idx].Reclaimer != name {
				t.Fatalf("cfg[%d] = t%d/%s, want t%d/%s",
					idx, cfgs[idx].Threads, cfgs[idx].Reclaimer, n, name)
			}
			idx++
		}
	}
}

// TestExp2SingleTrialConvention pins that exp2 keeps the verbatim-seed
// single-trial convention (Runner.Run's trials <= 0) the table has always
// used: one task per ORIG/AF name, at the at-thread count, the base seed
// untouched.
func TestExp2SingleTrialConvention(t *testing.T) {
	e, _ := experiments.Get("exp2")
	e, err := e.Resolve(smokeFlags(2, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	sweeps := e.Sweeps
	if len(sweeps) != 1 || sweeps[0].RunTrials() > 0 {
		t.Fatalf("exp2 requested the seed chain (trials=%d), want verbatim seeds", sweeps[0].RunTrials())
	}
	_, tasks := grid.ExpandTasks(sweeps[0].Expand(), sweeps[0].RunTrials(), nil, 0)
	if want := 2 * len(smr.Experiment2Pairs()); len(tasks) != want {
		t.Fatalf("exp2 expanded %d trials, want %d", len(tasks), want)
	}
	for _, task := range tasks {
		if task.Cfg.Seed != bench.DefaultWorkload(2).Seed || task.Cfg.Threads != 2 {
			t.Fatalf("exp2 trial %s runs seed %d at %d threads", results.Label(task.Cfg), task.Cfg.Seed, task.Cfg.Threads)
		}
	}
}

// TestTrialSeedsMatchesLegacyChain pins the seed derivation the results store
// keys depend on.
func TestTrialSeedsMatchesLegacyChain(t *testing.T) {
	got := bench.TrialSeeds(1, 3)
	// The legacy chain: s = s*31 + i + 1 starting from the base seed.
	want := []uint64{32, 994, 30817}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TrialSeeds(1,3) = %v, want %v", got, want)
		}
	}
	if n := len(bench.TrialSeeds(7, 0)); n != 1 {
		t.Fatalf("TrialSeeds(_, 0) length = %d, want 1 (clamped)", n)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "table1", "fig3", "table2", "fig4", "table3",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table4",
		"exp1", "exp2", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "appg", "lat",
	}
	for _, id := range want {
		if _, ok := experiments.Get(id); !ok {
			t.Errorf("experiment %q not in the table", id)
		}
	}
	if got := experiments.IDs(); len(got) != len(want) {
		t.Fatalf("table has %d experiments, want %d: %v", len(got), len(want), got)
	}
}

func TestExperimentTable4Runs(t *testing.T) {
	out := runExperiment(t, "table4", smokeFlags(4), 4)
	for _, want := range []string{"Naive", "Pass-first", "Periodic", "Amortized"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentFig9TimelineRuns(t *testing.T) {
	if out := runExperiment(t, "fig9", smokeFlags(4), 4); !strings.Contains(out, "token_af") {
		t.Errorf("fig9 output unexpected:\n%s", out)
	}
}

func TestExperimentTable2Runs(t *testing.T) {
	out := runExperiment(t, "table2", smokeFlags(4), 4)
	if !strings.Contains(out, "JE batch") || !strings.Contains(out, "JE amort.") {
		t.Errorf("table2 output missing rows:\n%s", out)
	}
}
