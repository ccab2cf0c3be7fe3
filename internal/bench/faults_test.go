package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/smr"
)

func mustFaults(t *testing.T, plan string) []FaultSpec {
	t.Helper()
	fs, err := ParseFaults(plan)
	if err != nil {
		t.Fatalf("ParseFaults(%q): %v", plan, err)
	}
	return fs
}

func TestParseFormatFaultsRoundTrip(t *testing.T) {
	cases := []string{
		"none",
		"stall:w0@4096",
		"wedge:w2@512",
		"crash:w1@256",
		"slowdown:w0@1024~2048x8",
		"stall:w?@4096~8192/16384",
		"stall:w0@1024,crash:w3@2048",
	}
	for _, want := range cases {
		fs, err := ParseFaults(want)
		if err != nil {
			t.Fatalf("ParseFaults(%q): %v", want, err)
		}
		if got := FormatFaults(fs); got != want {
			t.Errorf("roundtrip %q -> %q", want, got)
		}
	}
	if fs := mustFaults(t, ""); fs != nil {
		t.Errorf("empty plan parsed to %v", fs)
	}
	for _, bad := range []string{
		"stall",          // no colon
		"explode:w0@1",   // unknown kind (rejected at engine build)
		"stall:x0@1",     // bad worker
		"stall:w0@-1",    // negative trigger
		"stall:w0@1~abc", // bad span
	} {
		fs, err := ParseFaults(bad)
		if err == nil {
			// Kind names are validated by the engine, not the parser.
			if verr := ValidateFaults(WorkloadConfig{Threads: 4, Faults: fs}); verr == nil {
				t.Errorf("ParseFaults(%q) accepted", bad)
			}
		}
	}
}

func TestFaultWorkerOutOfRange(t *testing.T) {
	cfg := DefaultWorkload(2)
	cfg.Faults = mustFaults(t, "stall:w5@64")
	if _, err := NewStack(cfg); err == nil {
		t.Fatal("worker index beyond Threads accepted")
	}
}

// TestStallBoundedLimboContrast is the paper's adversarial dichotomy as a
// test: the same stalled-reader fault makes an epoch scheme's garbage grow
// without bound while a hazard-family scheme's stays bounded.
func TestStallBoundedLimboContrast(t *testing.T) {
	peak := func(rec string) int64 {
		cfg := DefaultWorkload(4)
		cfg.Reclaimer = rec
		cfg.KeyRange = 1 << 12
		cfg.FixedOps = 20000
		cfg.BatchSize = 128
		cfg.Deadline = 30 * time.Second // safety net only; must not fire
		cfg.Faults = mustFaults(t, "stall:w0@1024~8192")
		tr, err := RunTrial(cfg)
		if err != nil {
			t.Fatalf("%s: %v", rec, err)
		}
		if tr.Faults.Stalls == 0 {
			t.Fatalf("%s: stall fault never fired", rec)
		}
		return tr.PeakLimbo
	}
	debra := peak("debra")
	hp := peak("hp")
	// The hazard scheme's peak is bounded by in-flight bags regardless of
	// the stall; the epoch scheme accumulates every retire of the stall
	// window. Factor 4 keeps the assertion far from both bounds.
	if debra < 4*hp {
		t.Errorf("stalled-reader dichotomy missing: debra peak limbo %d < 4x hp peak %d", debra, hp)
	}
	if bound := int64(8 * 4 * 128); hp >= bound {
		t.Errorf("hp peak limbo %d not bounded (want < %d)", hp, bound)
	}
}

// TestCrashAdoptionZeroLeak is the orphan-adoption stress: a worker that
// crashes without Leave strands its limbo on a live slot; the trial-end
// reaper orphans it and Drain must adopt and free every object, for every
// reclaimer and every tree. Run with -race in the CI robustness job.
func TestCrashAdoptionZeroLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("crash stress across the full registry is not -short")
	}
	for _, dsName := range ds.Names() {
		for _, rec := range smr.Names() {
			t.Run(dsName+"/"+rec, func(t *testing.T) {
				cfg := DefaultWorkload(4)
				cfg.DataStructure = dsName
				cfg.Reclaimer = rec
				cfg.KeyRange = 1 << 10
				cfg.FixedOps = 1500
				cfg.BatchSize = 64
				cfg.Seed = 7
				cfg.Scenario = "paper"
				cfg.Faults = mustFaults(t, "crash:w1@256")
				st, err := NewStack(cfg)
				if err != nil {
					t.Fatal(err)
				}
				runs, _, err := resolveSchedule(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				prefill(&cfg, st)
				if _, _, err := runPhases(&cfg, st, runs); err != nil {
					t.Fatal(err)
				}
				st.Stop()
				if got := st.faults.snapshot().Crashes; got != 1 {
					t.Fatalf("crashes = %d, want 1", got)
				}
				st.reapCrashed()
				st.Close()
				stats := st.Reclaimer.Stats()
				if rec == "none" {
					// The leaky baseline never frees; the crash changes
					// nothing about that.
					return
				}
				if stats.Limbo != 0 {
					t.Errorf("post-drain limbo = %d, want 0", stats.Limbo)
				}
				if stats.Retired != stats.Freed {
					t.Errorf("retired %d != freed %d after crash adoption", stats.Retired, stats.Freed)
				}
			})
		}
	}
}

// wedgedConfig is a two-thread FixedOps trial whose worker 0 wedges at op
// 512 with a 300 ms watchdog armed; abortGrace is stretched for the test.
func wedgedConfig(t *testing.T) WorkloadConfig {
	oldGrace := abortGrace
	abortGrace = 5 * time.Second
	t.Cleanup(func() { abortGrace = oldGrace })

	cfg := DefaultWorkload(2)
	cfg.KeyRange = 1 << 10
	cfg.FixedOps = 20000
	cfg.Deadline = 300 * time.Millisecond
	cfg.Faults = mustFaults(t, "wedge:w0@512")
	return cfg
}

// expectWatchdogAbort runs cfg through RunTrial and requires the watchdog's
// diagnosed abort: a *TrialError with the goroutine dump and fault counts,
// a partial result carrying the reason, promptly.
func expectWatchdogAbort(t *testing.T, cfg WorkloadConfig) {
	t.Helper()
	t0 := time.Now()
	tr, err := RunTrial(cfg)
	elapsed := time.Since(t0)
	var terr *TrialError
	if !errors.As(err, &terr) {
		t.Fatalf("wedged trial returned %v, want *TrialError", err)
	}
	if tr.Error == "" {
		t.Error("aborted TrialResult carries no Error")
	}
	if terr.Diagnostics == "" || !strings.Contains(terr.Diagnostics, "goroutines:") {
		t.Errorf("diagnostics missing goroutine dump:\n%s", terr.Diagnostics)
	}
	if !strings.Contains(terr.Diagnostics, "wedges=1") {
		t.Errorf("diagnostics missing fault counts:\n%s", terr.Diagnostics)
	}
	// The wedge must be caught promptly: deadline plus scheduling slack,
	// not the unbounded hang it would otherwise be.
	if elapsed > 20*time.Second {
		t.Errorf("abort took %v", elapsed)
	}
}

func TestWatchdogAbortsWedgedTrial(t *testing.T) {
	expectWatchdogAbort(t, wedgedConfig(t))
}

func TestWatchdogHealthyTrialUnaffected(t *testing.T) {
	cfg := DefaultWorkload(2)
	cfg.KeyRange = 1 << 10
	cfg.FixedOps = 2000
	cfg.Deadline = 30 * time.Second
	tr, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Error != "" {
		t.Fatalf("healthy trial reported error %q", tr.Error)
	}
	if tr.Ops != int64(cfg.Threads*cfg.FixedOps) {
		t.Fatalf("ops = %d, want %d", tr.Ops, cfg.Threads*cfg.FixedOps)
	}
}

// The two historical hangs, pinned as injected-fault regression tests: if
// either deadlock pattern regresses, the watchdog converts the hang into a
// fast failure with diagnostics instead of wedging the test binary.

// TestRegressionRCUConcurrentSynchronize: RCU's synchronize once livelocked
// when multiple threads synchronized at once (each waiting on the others'
// odd counters). A tiny batch size makes synchronize near-continuous on
// every thread, and a slowdown fault de-syncs one worker to widen the
// overlap windows.
func TestRegressionRCUConcurrentSynchronize(t *testing.T) {
	cfg := DefaultWorkload(4)
	cfg.Reclaimer = "rcu"
	cfg.DataStructure = "abtree"
	cfg.KeyRange = 1 << 10
	cfg.FixedOps = 4000
	cfg.BatchSize = 16
	cfg.Deadline = 20 * time.Second
	cfg.Faults = mustFaults(t, "slowdown:w0@512~2048x16")
	if _, err := RunTrial(cfg); err != nil {
		var terr *TrialError
		if errors.As(err, &terr) {
			t.Fatalf("RCU mutual-synchronize hang is back:\n%s", terr.Diagnostics)
		}
		t.Fatal(err)
	}
}

// TestRegressionOcctreeRetireUnderLock: occtree once retired while holding
// a node lock, which deadlocked against reclaimers whose Retire blocks for
// a grace period (RCU). Small batches force frequent grace waits.
func TestRegressionOcctreeRetireUnderLock(t *testing.T) {
	cfg := DefaultWorkload(4)
	cfg.Reclaimer = "rcu"
	cfg.DataStructure = "occtree"
	cfg.KeyRange = 1 << 10
	cfg.FixedOps = 4000
	cfg.BatchSize = 16
	cfg.Deadline = 20 * time.Second
	if _, err := RunTrial(cfg); err != nil {
		var terr *TrialError
		if errors.As(err, &terr) {
			t.Fatalf("occtree retire-under-lock hang is back:\n%s", terr.Diagnostics)
		}
		t.Fatal(err)
	}
}

// TestPhasedCrashComposes: a crash fault inside a phased schedule — the
// dead worker must be skipped by later shrink/grow/dispatch rounds and its
// stranded slot reaped at trial end.
func TestPhasedCrashComposes(t *testing.T) {
	cfg := DefaultWorkload(4)
	cfg.Scenario = "churn"
	cfg.KeyRange = 1 << 10
	cfg.FixedOps = 1024
	cfg.BatchSize = 64
	cfg.Deadline = 30 * time.Second
	cfg.Faults = mustFaults(t, "crash:w3@256")
	tr, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Faults.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", tr.Faults.Crashes)
	}
	if tr.Error != "" {
		t.Fatalf("phased crash trial reported error %q", tr.Error)
	}
}

// TestNoFaultPathUntouched: an empty plan must leave the trial bit-identical
// to one with no Faults field at all (the golden-parity guarantee rides on
// this).
func TestNoFaultPathUntouched(t *testing.T) {
	base := DefaultWorkload(1)
	base.KeyRange = 1 << 10
	base.FixedOps = 2000
	a, err := RunTrial(base)
	if err != nil {
		t.Fatal(err)
	}
	withEmpty := base
	withEmpty.Faults = []FaultSpec{}
	withEmpty.Deadline = 30 * time.Second
	b, err := RunTrial(withEmpty)
	if err != nil {
		t.Fatal(err)
	}
	if ma, mb := modeledOf(a), modeledOf(b); ma != mb {
		t.Errorf("empty fault plan + watchdog changed the trial:\n a=%+v\n b=%+v", ma, mb)
	}
}
