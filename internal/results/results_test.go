package results

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

func testConfig(threads int, seed uint64) bench.WorkloadConfig {
	cfg := bench.DefaultWorkload(threads)
	cfg.Seed = seed
	return cfg
}

func testRecord(cfg bench.WorkloadConfig, ops float64) Record {
	return NewRecord(cfg, bench.TrialResult{
		Scenario:  cfg.Scenario,
		Seed:      cfg.Seed,
		OpsPerSec: ops,
		PeakMiB:   1.5,
	})
}

func TestKeyStability(t *testing.T) {
	cfg := testConfig(4, 7)
	if KeyOf(cfg) != KeyOf(cfg) {
		t.Fatal("KeyOf not deterministic")
	}
	other := cfg
	other.Reclaimer = "token_af"
	if KeyOf(cfg) == KeyOf(other) {
		t.Fatal("different reclaimers share a key")
	}
}

func TestKeyNormalizationEquivalences(t *testing.T) {
	// A zero-valued knob and its harness-applied default must share a key.
	base := testConfig(4, 7)
	zeroed := base
	zeroed.Scenario = ""
	zeroed.BatchSize = 0
	zeroed.DrainRate = 0
	zeroed.TokenCheckK = 0
	zeroed.Cost.ThreadsPerSocket = 0
	filled := base
	filled.Scenario = "paper"
	filled.BatchSize = 2048
	filled.DrainRate = 1
	filled.TokenCheckK = 100
	if KeyOf(zeroed) != KeyOf(filled) {
		t.Fatal("zero knobs and explicit defaults hash differently")
	}
	// FixedOps and BurstOps are NOT normalized: each value is a different
	// measurement.
	for _, mutate := range []func(*bench.WorkloadConfig){
		func(c *bench.WorkloadConfig) { c.FixedOps = 1000 },
		func(c *bench.WorkloadConfig) { c.BurstOps = 1024 },
	} {
		changed := base
		mutate(&changed)
		if KeyOf(changed) == KeyOf(base) {
			t.Fatalf("trial-mode knob did not change the key: %+v", changed)
		}
	}
}

// TestStoredConfigFieldsV6 pins what schema 6 hashes and stores: a default
// configuration encodes exactly these fields (Faults, Deadline and Arrival
// are omitempty), so the three knobs v6 retired cannot ride in a new record.
// A field added to WorkloadConfig fails here first: it moves every key, so
// it needs a SchemaVersion bump.
func TestStoredConfigFieldsV6(t *testing.T) {
	line, err := json.Marshal(testRecord(testConfig(4, 7), 1))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Schema int                        `json:"schema"`
		Config map[string]json.RawMessage `json:"config"`
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Schema != 6 {
		t.Fatalf("record schema = %d, want 6", rec.Schema)
	}
	want := strings.Fields(`Scenario DataStructure Reclaimer Allocator Threads
		KeyRange Duration BatchSize DrainRate TokenCheckK EraFreq Cost TCacheCap
		FlushFraction ArenasPerThread PoolCapacity Record RecorderCap Seed
		FixedOps ZipfTheta HotFraction HotShiftOps BurstOps Phases`)
	var got []string
	for name := range rec.Config {
		got = append(got, name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("stored config fields:\n got  %v\n want %v", got, want)
	}
}

func TestPhasesSeparateKeys(t *testing.T) {
	// A phase schedule is part of what the trial measured.
	flat := testConfig(4, 7)
	phased := flat
	phased.Phases = []bench.PhaseSpec{{Live: 4, Ops: 100}, {Live: 2, Ops: 100}}
	if KeyOf(flat) == KeyOf(phased) || GroupOf(flat) == GroupOf(phased) {
		t.Fatal("phased and unphased configs share keys")
	}
	// ...but an empty (non-nil) schedule is still the unphased trial.
	empty := flat
	empty.Phases = []bench.PhaseSpec{}
	if KeyOf(empty) != KeyOf(flat) {
		t.Fatal("empty and nil schedules hash differently")
	}
	longer := phased
	longer.Phases = append(append([]bench.PhaseSpec{}, phased.Phases...), bench.PhaseSpec{Live: 4, Ops: 100})
	if KeyOf(longer) == KeyOf(phased) {
		t.Fatal("different schedules share a key")
	}
	if !strings.Contains(Label(phased), "4x100") {
		t.Fatalf("label omits the schedule: %q", Label(phased))
	}
}

func TestSeedSeparatesKeysButNotGroups(t *testing.T) {
	a := testConfig(4, 1)
	b := testConfig(4, 2)
	if KeyOf(a) == KeyOf(b) {
		t.Fatal("different seeds share a TrialKey")
	}
	if GroupOf(a) != GroupOf(b) {
		t.Fatal("different seeds split the GroupKey")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		testRecord(testConfig(2, 1), 100),
		testRecord(testConfig(2, 2), 120),
		testRecord(testConfig(4, 1), 300),
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(recs) {
		t.Fatalf("reloaded %d records, want %d", re.Len(), len(recs))
	}
	for _, r := range recs {
		if !re.Has(r.Key) {
			t.Fatalf("key %s lost on reload", r.Key)
		}
		got := re.Get(r.Key)
		if len(got) != 1 || got[0].Trial.OpsPerSec != r.Trial.OpsPerSec {
			t.Fatalf("record under %s corrupted: %+v", r.Key, got)
		}
		if got[0].Seed != r.Config.Seed {
			t.Fatalf("seed not self-described: %+v", got[0])
		}
	}
	if len(re.Keys()) != 3 {
		t.Fatalf("keys = %v", re.Keys())
	}
}

func TestStoreSkipsTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testRecord(testConfig(2, 1), 100)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Simulate an interrupted append: a half-written trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("torn line not skipped: %d records", re.Len())
	}
	// The store must remain appendable after a torn tail.
	if err := re.Append(testRecord(testConfig(2, 2), 120)); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDedupesByKey(t *testing.T) {
	a := NewMemStore()
	b := NewMemStore()
	shared := testRecord(testConfig(2, 1), 100)
	only := testRecord(testConfig(2, 2), 120)
	if err := a.Append(shared); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(shared); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(only); err != nil {
		t.Fatal(err)
	}
	added, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || a.Len() != 2 {
		t.Fatalf("merge added %d (len %d), want 1 (len 2)", added, a.Len())
	}
}

func TestSummariesStatistics(t *testing.T) {
	st := NewMemStore()
	for i, ops := range []float64{100, 200, 300} {
		if err := st.Append(testRecord(testConfig(2, uint64(i+1)), ops)); err != nil {
			t.Fatal(err)
		}
	}
	sums := st.Summaries()
	if len(sums) != 1 {
		t.Fatalf("summaries = %d, want 1 group", len(sums))
	}
	s := sums[0]
	if s.N != 3 || s.MeanOps != 200 || s.MinOps != 100 || s.MaxOps != 300 {
		t.Fatalf("bad aggregates: %+v", s)
	}
	if math.Abs(s.StdDevOps-100) > 1e-9 {
		t.Fatalf("stddev = %v, want 100", s.StdDevOps)
	}
	wantCI := 1.96 * 100 / math.Sqrt(3)
	if math.Abs(s.CI95Ops-wantCI) > 1e-9 {
		t.Fatalf("ci95 = %v, want %v", s.CI95Ops, wantCI)
	}
	if len(s.Seeds) != 3 || s.Seeds[0] != 1 || s.Seeds[2] != 3 {
		t.Fatalf("seeds = %v", s.Seeds)
	}
	if s.Config.Seed != 0 {
		t.Fatalf("representative config keeps a seed: %d", s.Config.Seed)
	}
}

// TestRunTrialsAggregation summarizes real trials run down the seed chain, as
// a sweep does: every trial is kept in order and the mean lies between the
// extremes.
func TestRunTrialsAggregation(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.KeyRange = 1 << 10
	cfg.Duration = 25 * time.Millisecond
	cfg.BatchSize = 128
	seeds := bench.TrialSeeds(cfg.Seed, 2)
	var trials []bench.TrialResult
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		tr, err := bench.RunTrial(c)
		if err != nil {
			t.Fatal(err)
		}
		trials = append(trials, tr)
	}
	s := Summarize(cfg, trials, 0)
	if s.N != 2 || len(s.Trials) != 2 || !slices.Equal(s.Seeds, seeds) {
		t.Fatalf("n = %d, trials = %d, seeds = %v (want %v)", s.N, len(s.Trials), s.Seeds, seeds)
	}
	if s.MinOps > s.MeanOps || s.MeanOps > s.MaxOps {
		t.Fatalf("mean %v outside [min %v, max %v]", s.MeanOps, s.MinOps, s.MaxOps)
	}
}

func TestDumpJSONL(t *testing.T) {
	st := NewMemStore()
	if err := st.Append(testRecord(testConfig(2, 1), 100)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("expected 1 line, got %d: %q", n, buf.String())
	}
	re := NewMemStore()
	if err := re.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("reload len = %d", re.Len())
	}
}
