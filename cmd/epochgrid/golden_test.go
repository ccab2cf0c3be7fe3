package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arrival"
	"repro/internal/bench"
	"repro/internal/results"
)

// emitFixture is a sweep's summaries written out by hand, in the style of
// experiments' fabricate: every number is a literal, so a golden rendering of
// them moves only when a format does. The groups cover every column's source:
// several trials (min/max/means), seeds out of ascending order, a
// configuration whose only trial was quarantined, open-system groups with pooled latency (one
// whose trials name their arrival process, one left to the config's), a
// recorded group with dropped events, two hosts, an explicit phase schedule
// and a scenario's default one.
func emitFixture(t *testing.T) []results.Summary {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// A configuration with no trial here is one whose only trial was
	// quarantined.
	summarize := func(cfg bench.WorkloadConfig, trials ...bench.TrialResult) results.Summary {
		quarantined := 0
		if len(trials) == 0 {
			quarantined = 1
		}
		return results.Summarize(cfg, trials, quarantined)
	}
	hist := func(vals ...int64) *arrival.Hist {
		h := &arrival.Hist{}
		for _, v := range vals {
			for i := 0; i < 100; i++ {
				h.Observe(v)
			}
		}
		return h
	}
	base := bench.DefaultWorkload(4)
	base.KeyRange = 1 << 10
	seeds := bench.TrialSeeds(base.Seed, 3)
	var sums []results.Summary

	multi := base
	sums = append(sums, summarize(multi,
		bench.TrialResult{Scenario: "paper", Seed: seeds[0], OpsPerSec: 1000.5, PeakMiB: 1.5, PeakLimbo: 100, ElapsedNanos: 2_000_000, Host: "alpha"},
		bench.TrialResult{Scenario: "paper", Seed: seeds[1], OpsPerSec: 1200.25, PeakMiB: 1.75, PeakLimbo: 200, ElapsedNanos: 3_000_000, Host: "alpha"},
		bench.TrialResult{Scenario: "paper", Seed: seeds[2], OpsPerSec: 900.125, PeakMiB: 2, PeakLimbo: 350, ElapsedNanos: 4_500_001, Host: "alpha"},
	))

	wedged := base
	wedged.Reclaimer = "hp"
	var err error
	wedged.Faults, err = bench.ParseFaults("wedge:w0@256")
	must(err)
	sums = append(sums, summarize(wedged))

	open := base
	open.Reclaimer = "ibr"
	open.Arrival = "poisson:150000"
	open.Faults, err = bench.ParseFaults("stall:w0@5000~60000")
	must(err)
	sums = append(sums, summarize(open,
		bench.TrialResult{Scenario: "paper", Seed: seeds[0], OpsPerSec: 600000, PeakMiB: 3.25, PeakLimbo: 4096, Arrival: "poisson:150000", Latency: hist(2_000, 40_000), ElapsedNanos: 600_000_000, Host: "alpha"},
		bench.TrialResult{Scenario: "paper", Seed: seeds[1], OpsPerSec: 590000, PeakMiB: 3.5, PeakLimbo: 8192, Arrival: "poisson:150000", Latency: hist(3_000, 9_000_000), ElapsedNanos: 610_000_000, Host: "alpha"},
	))

	bursty := base
	bursty.Reclaimer = "debra_af"
	bursty.Arrival = "bursty:20000"
	sums = append(sums, summarize(bursty,
		bench.TrialResult{Scenario: "paper", Seed: seeds[0], OpsPerSec: 80000, PeakMiB: 1.25, Latency: hist(1_500, 7_000)},
	))

	recorded := base
	recorded.Reclaimer = "token_af"
	recorded.Record = true
	recorded.RecorderCap = 2000
	sums = append(sums, summarize(recorded,
		bench.TrialResult{Scenario: "paper", Seed: seeds[0], OpsPerSec: 700, PeakMiB: 1.125, Dropped: 7, Host: "alpha"},
		bench.TrialResult{Scenario: "paper", Seed: seeds[1], OpsPerSec: 710, PeakMiB: 1.25, Dropped: 5, Host: "alpha"},
	))

	hosts := base
	hosts.Reclaimer = "qsbr"
	hosts.Threads = 8
	sums = append(sums, summarize(hosts,
		bench.TrialResult{Scenario: "paper", Seed: seeds[1], OpsPerSec: 1500, PeakMiB: 2.5, PeakLimbo: 10, Host: "alpha"},
		bench.TrialResult{Scenario: "paper", Seed: seeds[0], OpsPerSec: 1400, PeakMiB: 2.25, PeakLimbo: 11, Host: "beta"},
		bench.TrialResult{Scenario: "paper", Seed: seeds[2], OpsPerSec: 1450, PeakMiB: 2.75, PeakLimbo: 12},
		bench.TrialResult{Scenario: "paper", Seed: seeds[2] + 1, OpsPerSec: 1425, PeakMiB: 2.625, PeakLimbo: 13, Host: "alpha"},
	))

	phased := base
	phased.Phases, err = bench.ParsePhases("4x200,1x200,4x200")
	must(err)
	sums = append(sums, summarize(phased,
		bench.TrialResult{Scenario: "paper", Seed: seeds[0], OpsPerSec: 300, PeakMiB: 1, ElapsedNanos: 1_250_000},
		bench.TrialResult{Scenario: "paper", Phases: "4x200,1x200,4x200", Seed: seeds[1], OpsPerSec: 310, PeakMiB: 1.0625, ElapsedNanos: 1_375_000},
	))

	churn := base
	churn.Scenario = "churn"
	churn.BatchSize = 128
	sums = append(sums, summarize(churn,
		bench.TrialResult{Scenario: "churn", Seed: seeds[0], OpsPerSec: 420, PeakMiB: 1.5, PeakLimbo: 64},
	))
	return sums
}

// TestEmitGoldens renders the fixture in every sweep format and compares with
// testdata/emit.golden, which has no -update: a column's value, rounding or
// order cannot move unnoticed.
func TestEmitGoldens(t *testing.T) {
	sums := emitFixture(t)
	var got bytes.Buffer
	for _, format := range []string{"table", "csv", "json"} {
		got.WriteString("== " + format + " ==\n")
		if err := emit(&got, format, sums, 5, 3); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/emit.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("emit output differs from testdata/emit.golden:\n%s", got.String())
	}
}

// TestCompareGoldens diffs two literal stores (testdata/compare-old.jsonl,
// compare-new.jsonl) in both -compare formats and compares with the goldens,
// which have no -update. The stores hold an unchanged multi-trial group appended out of seed order, an
// improved, an ops-regressed, a limbo-regressed and a latency-regressed
// group, a group with a quarantined trial, an all-quarantined group, and
// groups on one side only.
func TestCompareGoldens(t *testing.T) {
	for _, tc := range []struct{ format, golden string }{
		{"table", "testdata/compare-text.golden"},
		{"json", "testdata/compare-json.golden"},
	} {
		out := filepath.Join(t.TempDir(), "report")
		if code := realMain([]string{"-compare", "testdata/compare-old.jsonl", "-with", "testdata/compare-new.jsonl",
			"-format", tc.format, "-out", out}); code != 1 {
			t.Fatalf("-format %s: exit code %d, want 1 (the stores hold regressions)", tc.format, code)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("-format %s differs from %s:\n%s", tc.format, tc.golden, got)
		}
	}
}
