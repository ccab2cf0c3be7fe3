package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/results"
)

// TestOpenStoreReportsOtherSchema: a store holding a schema-5 record beside a
// current one opens with both kept and one line on the warning stream; a
// store with nothing from another schema opens silently.
func TestOpenStoreReportsOtherSchema(t *testing.T) {
	raw, err := os.ReadFile("testdata/v5-and-v6.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var warn bytes.Buffer
	st, err := openStore(path, &warn)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 2 {
		t.Fatalf("store kept %d records, want 2", st.Len())
	}
	want := "epochgrid: 1 of 2 records were written under schema 5; they are kept but cannot match v6 keys\n"
	if warn.String() != want {
		t.Fatalf("warning = %q, want %q", warn.String(), want)
	}

	warn.Reset()
	fresh, err := openStore(filepath.Join(t.TempDir(), "fresh.jsonl"), &warn)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if warn.Len() != 0 {
		t.Fatalf("fresh store warned: %q", warn.String())
	}
}

// TestOutOpensBeforeTheSweep: -out is created before the first trial, so an
// unwritable path exits 1 with nothing run — the store holds no record — for
// a plain sweep and an experiment alike.
func TestOutOpensBeforeTheSweep(t *testing.T) {
	tiny := []string{"-threads", "2", "-at", "2", "-ops", "50", "-keyrange", "1024"}
	for name, mode := range map[string][]string{
		"sweep":      {"-reclaimers", "debra"},
		"experiment": {"-experiment", "table2"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store := filepath.Join(dir, "store.jsonl")
			args := append(append([]string{"-store", store, "-out", filepath.Join(dir, "no-such-dir", "out.csv")}, tiny...), mode...)
			if code := realMain(args); code != 1 {
				t.Fatalf("exit code %d, want 1", code)
			}
			if info, err := os.Stat(store); err == nil && info.Size() > 0 {
				t.Fatalf("the sweep ran before -out failed: store holds %d bytes", info.Size())
			}
		})
	}
}

// TestExperimentFlagErrors: what -experiment cannot honour is a one-line
// exit-2 refusal, never a silently ignored flag.
func TestExperimentFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown id":       {"-experiment", "fig99"},
		"swept free axis":  {"-experiment", "exp1", "-scenarios", "paper,zipf"},
		"fixed axis named": {"-experiment", "exp1", "-reclaimers", "debra"},
	} {
		if code := realMain(args); code != 2 {
			t.Errorf("%s: exit code %d, want 2", name, code)
		}
	}
}

// TestCompareGate: -compare is CI's baseline gate. It fails on a regressed
// group, on a group the baseline lacks, and on stores with no group in
// common; a new store whose groups are a subset of the baseline's, each
// within tolerance, passes.
func TestCompareGate(t *testing.T) {
	// store writes one single-trial group per reclaimer, at the given ops/s.
	store := func(groups map[string]float64) string {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		st, err := results.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for reclaimer, ops := range groups {
			cfg := bench.DefaultWorkload(2)
			cfg.Reclaimer, cfg.Seed = reclaimer, 1
			if err := st.Append(results.NewRecord(cfg, bench.TrialResult{Scenario: cfg.Scenario, Seed: 1, OpsPerSec: ops})); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	baseline := store(map[string]float64{"debra": 100, "hp": 100, "qsbr": 100})
	for _, tc := range []struct {
		name   string
		groups map[string]float64
		want   int
	}{
		{"regressed", map[string]float64{"debra": 10, "hp": 100}, 1},
		{"only-new", map[string]float64{"debra": 100, "ibr": 100}, 1},
		{"disjoint", map[string]float64{"ibr": 100, "he": 100}, 1},
		{"subset with only-old groups", map[string]float64{"debra": 102, "hp": 99}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "report.txt")
			if code := realMain([]string{"-compare", baseline, "-with", store(tc.groups), "-tol", "0.5", "-out", out}); code != tc.want {
				t.Fatalf("exit code %d, want %d", code, tc.want)
			}
		})
	}
}

// FuzzSpecFromFlags feeds arbitrary command lines to the sweep flags' parser:
// it never panics, and a spec that parses and validates expands to exactly the
// product of its axis lengths (an empty axis counting as its one Base value).
// Seeded from the CI jobs' flag strings.
func FuzzSpecFromFlags(f *testing.F) {
	for _, line := range []string{
		"-scenarios paper,zipf -reclaimers debra,token_af -threads 2 -dur 30ms -keyrange 4096 -trials 1",
		"-scenarios churn -reclaimers debra,token_af,hp_af -threads 4 -ops 200 -keyrange 4096 -trials 1",
		"-scenarios paper -reclaimers debra -threads 4 -phases 4x200,1x200,4x200,1x200 -keyrange 4096",
		"-reclaimers debra,qsbr,hp,he,ibr -threads 4 -faults stall:w0@512~16384 -ops 8000 -keyrange 4096 -batches 128",
		"-reclaimers debra,hp -arrivals none;poisson:150000 -faults none;stall:w0@5000~60000 -dur 600ms",
		"-ds abtree,occtree,dgtree -allocators jemalloc,tcmalloc,mimalloc -batches 128,2048 -seed 7",
		"-phases ;8x1000 -faults ; -arrivals ;",
		"-threads 2,,4, -batches ,",
		"-threads 0 -trials -1 -dur -5ms",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var sweep sweepFlags
		sweep.register(fs)
		if fs.Parse(strings.Fields(line)) != nil {
			return
		}
		spec, err := sweep.spec()
		if err != nil || spec.Validate() != nil {
			return
		}
		want := 1
		for _, n := range []int{
			len(spec.Scenarios), len(spec.PhaseSchedules), len(spec.FaultPlans), len(spec.Arrivals),
			len(spec.DataStructures), len(spec.Allocators), len(spec.Threads), len(spec.BatchSizes), len(spec.Reclaimers),
		} {
			want *= max(n, 1)
		}
		if want > 1<<12 {
			return // a legal sweep, just not one worth materializing per input
		}
		if got := len(spec.Expand()); got != want || spec.Size() != want {
			t.Fatalf("%q expands to %d configurations (Size %d), want %d", line, got, spec.Size(), want)
		}
	})
}
