package bench

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/smr"
)

// modeledStats is the host-independent slice of a TrialResult: everything a
// trial measures except wall-clock-derived numbers (ops/s, *Nanos, Pct*,
// and ClockReads — burnQueue takes one stamp per spin round, so the stamp
// count tracks host speed, same family as the nanos). With Threads == 1 and
// FixedOps set, a trial is otherwise fully deterministic, so two runs of one
// config must agree on every field — operation counts, allocator traffic,
// flush/remote/fresh-page behavior (which pins the (arena, hold) reservation
// pattern), reclaimer epochs and limbo, and peak mapped bytes.
type modeledStats struct {
	Ops                                 int64
	Allocs, Frees, RemoteFrees, Flushes int64
	FreshPages, MappedBytes, PeakByte   int64
	Epochs, Retired, Freed, Limbo       int64
}

func modeledOf(tr TrialResult) modeledStats {
	return modeledStats{
		Ops:    tr.Ops,
		Allocs: tr.Alloc.Allocs, Frees: tr.Alloc.Frees,
		RemoteFrees: tr.Alloc.RemoteFrees, Flushes: tr.Alloc.Flushes,
		FreshPages:  tr.Alloc.FreshPages,
		MappedBytes: tr.Alloc.MappedBytes, PeakByte: tr.PeakBytes,
		Epochs: tr.SMR.Epochs, Retired: tr.SMR.Retired,
		Freed: tr.SMR.Freed, Limbo: tr.SMR.Limbo,
	}
}

// parityConfig is a single-threaded fixed-op trial small enough to run for
// every reclaimer × tree pair but large enough to exercise flushes, scans,
// and epoch advances (BatchSize 128 with 4000 update-heavy ops retires well
// past several limbo bags).
func parityConfig(reclaimer, dsName string) WorkloadConfig {
	cfg := DefaultWorkload(1)
	cfg.Reclaimer = reclaimer
	cfg.DataStructure = dsName
	cfg.KeyRange = 1 << 10
	cfg.BatchSize = 128
	cfg.FixedOps = 4000
	cfg.Seed = 42
	return cfg
}

// TestDispatchParityFixedOps runs the parityConfig trial twice for every
// registered reclaimer on every tree: with one protection path there is no
// second arm to compare, so what is left of the parity is that the one path
// agrees with itself on every modeled field. TestFixedPopulationGoldenParity
// holds the same trial to the committed values; a pair that drifts run to run
// fails here, by name, instead of as a golden mismatch.
func TestDispatchParityFixedOps(t *testing.T) {
	for _, dsName := range ds.Names() {
		for _, rec := range smr.Names() {
			t.Run(dsName+"/"+rec, func(t *testing.T) {
				cfg := parityConfig(rec, dsName)
				first, err := RunTrial(cfg)
				if err != nil {
					t.Fatal(err)
				}
				second, err := RunTrial(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := modeledOf(first), modeledOf(second); a != b {
					t.Fatalf("modeled stats diverged between two runs:\n first  %+v\n second %+v", a, b)
				}
			})
		}
	}
}

// TestFixedOpsDeterministic pins the fixed-op trial mode itself: same
// config, same seed → same modeled stats, run to run.
func TestFixedOpsDeterministic(t *testing.T) {
	cfg := parityConfig("hp_af", "abtree")
	a, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if modeledOf(a) != modeledOf(b) {
		t.Fatalf("fixed-op trial not deterministic:\n %+v\n %+v", modeledOf(a), modeledOf(b))
	}
}

// TestFixedOpsExactCount verifies every thread runs exactly FixedOps ops —
// including budgets that are not a multiple of the stream batch size — and
// that Duration is ignored.
func TestFixedOpsExactCount(t *testing.T) {
	for _, threads := range []int{1, 3} {
		for _, n := range []int{1, 63, 64, 1000} {
			cfg := DefaultWorkload(threads)
			cfg.KeyRange = 1 << 10
			cfg.FixedOps = n
			cfg.Duration = 0 // must not matter
			tr, err := RunTrial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(threads * n); tr.Ops != want {
				t.Fatalf("threads=%d fixedOps=%d: ran %d ops, want %d", threads, n, tr.Ops, want)
			}
		}
	}
}

// TestFixedOpsRejectsNegative pins the validation.
func TestFixedOpsRejectsNegative(t *testing.T) {
	cfg := DefaultWorkload(1)
	cfg.FixedOps = -1
	if _, err := RunTrial(cfg); err == nil {
		t.Fatal("negative FixedOps accepted")
	}
}
