package experiments

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/arrival"
	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
	"repro/internal/timeline"
)

var update = flag.Bool("update", false, "rewrite testdata/reports.golden (never experiment-keys.golden: that one is the parent commit's)")

// pinnedFlags is the spec the key golden was captured under: threads 2,4;
// at 2 (see pinnedAt); 20 ms; 1 trial; key range 1024; batch 128; recorder
// capacity 2000.
func pinnedFlags() grid.Spec {
	base := bench.DefaultWorkload(4)
	base.Duration = 20 * time.Millisecond
	base.KeyRange = 1 << 10
	base.RecorderCap = 2000
	return grid.Spec{Base: base, Threads: []int{2, 4}, BatchSizes: []int{128}, Trials: 1}
}

const pinnedAt = 2

// TestExperimentKeysMatchParent pins that the table runs the trials the
// experiment functions ran. testdata/experiment-keys.golden holds, per
// experiment id, the TrialKey and label of every trial the functions of the
// commit before the table (805486c) executed under pinnedFlags, captured by a
// hook around bench.RunTrial. A key hashes the whole normalized configuration,
// so the seed (chained or verbatim), Record, Cost, the fault plan and the
// arrival process are all held; the comparison is of multisets, since the
// table's expansion order is the grid's, not the old loops'.
func TestExperimentKeysMatchParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/experiment-keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		id, keyAndLabel, _ := strings.Cut(line, " ")
		want[id] = append(want[id], keyAndLabel)
	}
	if len(want) != len(All) {
		t.Fatalf("golden names %d experiments, the table %d", len(want), len(All))
	}
	for _, e := range All {
		e, err := e.Resolve(pinnedFlags(), pinnedAt)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, sw := range e.Sweeps {
			_, tasks := grid.ExpandTasks(sw.Expand(), sw.RunTrials(), nil, 0)
			for _, task := range tasks {
				got = append(got, results.KeyOf(task.Cfg)+" "+results.Label(task.Cfg))
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want[e.ID]) {
			t.Errorf("%s expands to\n  %s\nthe parent ran\n  %s", e.ID, strings.Join(got, "\n  "), strings.Join(want[e.ID], "\n  "))
		}
	}
}

// fabricate stands in for the runner: one summary per configuration of every
// resolved sweep, its one trial's numbers a function of the position i alone
// (ops = 100 + i), so a golden report is stable and a cell rendered from the
// wrong summary shows.
func fabricate(t *testing.T, e Experiment) [][]results.Summary {
	t.Helper()
	e, err := e.Resolve(pinnedFlags(), pinnedAt)
	if err != nil {
		t.Fatal(err)
	}
	var per [][]results.Summary
	i := 0
	for _, sw := range e.Sweeps {
		var sums []results.Summary
		for _, cfg := range sw.Expand() {
			n := int64(i + 1)
			tr := bench.TrialResult{
				Scenario: cfg.Scenario, Seed: cfg.Seed,
				OpsPerSec: float64(100 + i), PeakMiB: 1 + float64(i)/10,
				PctFree: 10 + float64(i), PctFlush: 5 + float64(i), PctLock: float64(i),
				LatP50Ns: 1000 * n, LatP99Ns: 20000 * n, LatP999Ns: 300000 * n, LatMaxNs: 4000000 * n,
			}
			tr.SMR.Epochs, tr.SMR.Freed = 10*n, 1500*n
			if cfg.Record {
				rec := timeline.NewRecorderAt(0, 2, 16)
				rec.Record(0, timeline.KindBatchFree, 1e6, 3e6, 64)
				rec.Record(1, timeline.KindFreeCall, 2e6, 4e6, 0)
				rec.Record(0, timeline.KindEpochAdvance, 3e6, 3e6, 0)
				rec.Record(0, timeline.KindGarbageSample, 3e6, 3e6, 500*n)
				tr.Recorder, tr.Dropped = rec, int64(i%2)
			}
			if cfg.Arrival != "" {
				tr.Latency = &arrival.Hist{}
				for k := int64(1); k <= 4; k++ {
					tr.Latency.Observe(k * 1000 * n)
				}
			}
			sums = append(sums, results.Summarize(cfg, []bench.TrialResult{tr}, 0))
			i++
		}
		per = append(per, sums)
	}
	return per
}

// TestReportGoldens renders every experiment from fabricated summaries and
// compares with testdata/reports.golden, so a figure's title, a column or a
// closing line (exp1's three ratios, exp2's "N/10 improved", the tables'
// speedups, lat's blowup) cannot vanish unnoticed from any shared renderer.
func TestReportGoldens(t *testing.T) {
	var sb strings.Builder
	for _, e := range All {
		fmt.Fprintf(&sb, "== %s: %s ==\n%s\n", e.ID, e.Title, e.Report(fabricate(t, e)))
	}
	const path = "testdata/reports.golden"
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("reports differ from %s (run with -update after checking the change is meant):\n%s", path, got)
	}
}

// TestReportsSurviveQuarantine: a configuration whose trial was quarantined
// comes back as a summary with no trials; every renderer must print it as
// zeros, not index into it.
func TestReportsSurviveQuarantine(t *testing.T) {
	for _, e := range All {
		per := fabricate(t, e)
		for _, sums := range per {
			for i := range sums {
				sums[i] = results.Summarize(sums[i].Config, nil, 1)
			}
		}
		if e.Report(per) == "" {
			t.Errorf("%s: empty report", e.ID)
		}
	}
}

// TestResolveRefusesWhatItWouldIgnore: a caller sweeping an axis the figure
// does not sweep, or naming one the figure fixes, is an error naming the flag;
// a single value on a free axis reaches every configuration.
func TestResolveRefusesWhatItWouldIgnore(t *testing.T) {
	exp1, _ := Get("exp1")
	flags := pinnedFlags()
	flags.Scenarios = []string{"paper", "zipf"}
	if _, err := exp1.Resolve(flags, 2); err == nil || !strings.Contains(err.Error(), "-scenarios") {
		t.Fatalf("two scenarios: err = %v", err)
	}
	flags = pinnedFlags()
	flags.Reclaimers = []string{"debra"}
	if _, err := exp1.Resolve(flags, 2); err == nil || !strings.Contains(err.Error(), "-reclaimers") {
		t.Fatalf("a reclaimer under exp1: err = %v", err)
	}
	flags = pinnedFlags()
	flags.Scenarios, flags.DataStructures = []string{"zipf"}, []string{"occtree"}
	exp1, err := exp1.Resolve(flags, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range exp1.Sweeps[0].Expand() {
		if cfg.Scenario != "zipf" || cfg.DataStructure != "occtree" {
			t.Fatalf("free axes did not reach %s", results.Label(cfg))
		}
	}
	// lat's arrival process is a default, not a fixture.
	lat, _ := Get("lat")
	flags = pinnedFlags()
	flags.Arrivals = []string{"poisson:1000"}
	if lat, err = lat.Resolve(flags, 2); err != nil {
		t.Fatal(err)
	}
	if cfg := lat.Sweeps[0].Expand()[0]; cfg.Arrival != "poisson:1000" || cfg.Threads != 4 {
		t.Fatalf("lat runs %s at %d threads", cfg.Arrival, cfg.Threads)
	}
}

func TestTableFormatter(t *testing.T) {
	tb := newTable("a", "b")
	tb.add("1", "2")
	tb.addf("%d\t%s", 3, "x")
	out := tb.String()
	for _, want := range []string{"a", "b", "1", "2", "3", "x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[float64]string{
		5:      "5",
		1500:   "1.5K",
		2.5e6:  "2.5M",
		3.2e9:  "3.20B",
		43.4e6: "43.4M",
	}
	for v, want := range cases {
		if got := fmtOps(v); got != want {
			t.Errorf("fmtOps(%v) = %q, want %q", v, got, want)
		}
	}
	if ratio(2, 1) != "2.00x" || ratio(1, 0) != "inf" {
		t.Error("ratio formatting wrong")
	}
	if fmtCount(1500) != "1.5K" {
		t.Error("fmtCount wrong")
	}
}
