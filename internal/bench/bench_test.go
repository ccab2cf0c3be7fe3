package bench

import (
	"testing"
	"time"
)

// tinyWorkload returns a fast configuration for harness tests.
func tinyWorkload(threads int) WorkloadConfig {
	cfg := DefaultWorkload(threads)
	cfg.KeyRange = 1 << 10
	cfg.Duration = 25 * time.Millisecond
	cfg.BatchSize = 128
	return cfg
}

func TestRunTrialBasics(t *testing.T) {
	for _, rc := range []string{"none", "debra", "debra_af", "token_af", "hp"} {
		rc := rc
		t.Run(rc, func(t *testing.T) {
			cfg := tinyWorkload(4)
			cfg.Reclaimer = rc
			tr, err := RunTrial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Ops <= 0 || tr.OpsPerSec <= 0 {
				t.Fatalf("no throughput: %+v", tr)
			}
			if tr.PeakBytes <= 0 {
				t.Fatal("no peak memory recorded")
			}
			if tr.Alloc.Allocs == 0 {
				t.Fatal("no allocations recorded")
			}
			if rc != "none" && tr.SMR.Retired == 0 {
				t.Fatal("no retirements recorded")
			}
		})
	}
}

func TestRunTrialAllStructuresAndAllocators(t *testing.T) {
	for _, dsName := range []string{"abtree", "occtree", "dgtree"} {
		for _, alloc := range []string{"jemalloc", "tcmalloc", "mimalloc"} {
			cfg := tinyWorkload(2)
			cfg.DataStructure = dsName
			cfg.Allocator = alloc
			cfg.Reclaimer = "qsbr"
			tr, err := RunTrial(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", dsName, alloc, err)
			}
			if tr.Ops == 0 {
				t.Fatalf("%s/%s: no ops", dsName, alloc)
			}
		}
	}
}

func TestRunTrialValidation(t *testing.T) {
	if _, err := RunTrial(WorkloadConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := tinyWorkload(2)
	cfg.Reclaimer = "bogus"
	if _, err := RunTrial(cfg); err == nil {
		t.Fatal("unknown reclaimer accepted")
	}
	cfg = tinyWorkload(2)
	cfg.Allocator = "bogus"
	if _, err := RunTrial(cfg); err == nil {
		t.Fatal("unknown allocator accepted")
	}
	cfg = tinyWorkload(2)
	cfg.DataStructure = "bogus"
	if _, err := RunTrial(cfg); err == nil {
		t.Fatal("unknown data structure accepted")
	}
}

// chainedTrials runs n trials of cfg down the TrialSeeds chain, as a grid
// sweep does.
func chainedTrials(t *testing.T, cfg WorkloadConfig, n int) []TrialResult {
	t.Helper()
	var trials []TrialResult
	for _, seed := range TrialSeeds(cfg.Seed, n) {
		cfg.Seed = seed
		tr, err := RunTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trials = append(trials, tr)
	}
	return trials
}

func TestRecorderPlumbing(t *testing.T) {
	cfg := tinyWorkload(2)
	cfg.Record = true
	cfg.RecorderCap = 1000
	tr, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Recorder == nil {
		t.Fatal("recorder not returned")
	}
}

func TestWorkloadMaintainsSteadyState(t *testing.T) {
	// The 50/50 workload must perform genuine successful updates: the
	// allocator should see allocation traffic well beyond the prefill.
	cfg := tinyWorkload(4)
	cfg.Reclaimer = "none"
	tr, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefillAllocs := cfg.KeyRange // upper bound on prefill node count
	if tr.Alloc.Allocs < 2*prefillAllocs {
		t.Fatalf("allocs %d suggest the measured window performed no successful updates", tr.Alloc.Allocs)
	}
}

func TestRNGIndependenceOfKeyAndCoin(t *testing.T) {
	// Regression test for the frozen-set bug: with key and coin drawn from
	// one xorshift stream the coin is a deterministic function of the key.
	// Verify that for our two-stream scheme, keys seen with coin=0 and
	// coin=1 overlap substantially.
	keyRNG := newRNG(123)
	coinRNG := newRNG(456)
	seen := map[int64][2]bool{}
	for i := 0; i < 20000; i++ {
		k := keyRNG.intn(64)
		c := 0
		if coinRNG.next()&(1<<30) != 0 {
			c = 1
		}
		v := seen[k]
		v[c] = true
		seen[k] = v
	}
	both := 0
	for _, v := range seen {
		if v[0] && v[1] {
			both++
		}
	}
	if both < 60 {
		t.Fatalf("only %d/64 keys drawn with both coins; key/coin correlated", both)
	}
}

// TestTrialResultCarriesSeed pins the self-describing-results satellite:
// the seed a trial ran with must surface in its result.
func TestTrialResultCarriesSeed(t *testing.T) {
	cfg := tinyWorkload(2)
	cfg.Seed = 1234
	tr, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Seed != 1234 {
		t.Fatalf("TrialResult.Seed = %d, want 1234", tr.Seed)
	}
	trials := chainedTrials(t, cfg, 2)
	for i, seed := range TrialSeeds(1234, 2) {
		if trials[i].Seed != seed {
			t.Fatalf("trial %d seed = %d, want %d", i, trials[i].Seed, seed)
		}
	}
}
