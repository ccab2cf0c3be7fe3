// Package repro's root benchmarks run every configuration of every table and
// figure of "Are Your Epochs Too Epic? Batch Free Can Be Harmful" (PPoPP '24),
// plus ablations of the model's knobs (README.md, "Performance model" →
// "Ablations").
//
// Each benchmark reports paper-comparable metrics via b.ReportMetric:
// ops/s (throughput), peakMiB (peak mapped memory) and the perf percentages
// (%free, %lock). Run a single one with e.g.
//
//	go test -bench 'BenchmarkExperiment/table2' -benchtime 1x
//
// The b.N loop repeats whole trials; metrics come from the last trial.
package repro

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/results"
)

// benchThreads is the scaled thread count of the benchmarks (the paper's 192
// is epochgrid -experiment's default; benchmarks use a smaller count so
// `go test -bench .` completes in minutes).
const benchThreads = 48

// benchDur keeps each trial short; the experiments CLI uses longer windows.
const benchDur = 120 * time.Millisecond

// runWorkload runs b.N trials of a configuration and reports the paper's
// metrics from the last.
func runWorkload(b *testing.B, cfg bench.WorkloadConfig) {
	b.Helper()
	var tr bench.TrialResult
	var err error
	for i := 0; i < b.N; i++ {
		tr, err = bench.RunTrial(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tr.OpsPerSec, "ops/s")
	b.ReportMetric(tr.PeakMiB, "peakMiB")
	b.ReportMetric(tr.PctFree, "%free")
	b.ReportMetric(tr.PctLock, "%lock")
}

func cfgFor(reclaimer string, threads int) bench.WorkloadConfig {
	cfg := bench.DefaultWorkload(threads)
	cfg.Reclaimer = reclaimer
	cfg.Duration = benchDur
	return cfg
}

// --- Scenario engine: every registered workload under batch and AF ---

func BenchmarkScenarioBatch(b *testing.B) {
	for _, name := range bench.Scenarios() {
		b.Run(name, func(b *testing.B) {
			cfg := cfgFor("debra", benchThreads)
			cfg.Scenario = name
			runWorkload(b, cfg)
		})
	}
}

func BenchmarkScenarioAmortized(b *testing.B) {
	for _, name := range bench.Scenarios() {
		b.Run(name, func(b *testing.B) {
			cfg := cfgFor("debra_af", benchThreads)
			cfg.Scenario = name
			runWorkload(b, cfg)
		})
	}
}

// --- The paper's tables and figures: every configuration of the table ---

// BenchmarkExperiment runs each configuration of each experiment in
// internal/experiments as a sub-benchmark, at benchThreads and benchDur
// whatever thread list the figure names (configurations that then coincide
// run once), e.g.
//
//	go test -bench 'BenchmarkExperiment/table2' -benchtime 1x
func BenchmarkExperiment(b *testing.B) {
	flags := grid.Spec{Base: bench.DefaultWorkload(benchThreads), Threads: []int{benchThreads}}
	flags.Base.Duration = benchDur
	for _, e := range experiments.All {
		e, err := e.Resolve(flags, benchThreads)
		if err != nil {
			b.Fatal(err)
		}
		seen := map[string]bool{}
		for _, sw := range e.Sweeps {
			for _, cfg := range sw.Expand() {
				cfg.Threads = benchThreads
				name := e.ID + "/" + results.Label(cfg)
				if cfg.Record {
					name += "/recorded"
				}
				if seen[name] {
					continue
				}
				seen[name] = true
				b.Run(name, func(b *testing.B) { runWorkload(b, cfg) })
			}
		}
	}
}

// --- Ablations (README.md, "Performance model" → "Ablations") ---

// Ablation 1: jemalloc's flush fraction (~3/4 in the real allocator).
func BenchmarkAblationFlushFraction25(b *testing.B) { benchFlushFraction(b, 0.25) }
func BenchmarkAblationFlushFraction75(b *testing.B) { benchFlushFraction(b, 0.75) }
func BenchmarkAblationFlushFraction100(b *testing.B) {
	benchFlushFraction(b, 1.0)
}

func benchFlushFraction(b *testing.B, frac float64) {
	cfg := cfgFor("debra", benchThreads)
	cfg.FlushFraction = frac
	runWorkload(b, cfg)
}

// Ablation 2: thread-cache capacity vs batch size interplay.
func BenchmarkAblationTcacheSize25(b *testing.B)  { benchTcache(b, 25) }
func BenchmarkAblationTcacheSize100(b *testing.B) { benchTcache(b, 100) }
func BenchmarkAblationTcacheSize400(b *testing.B) { benchTcache(b, 400) }

func benchTcache(b *testing.B, cap int) {
	cfg := cfgFor("debra", benchThreads)
	cfg.TCacheCap = cap
	runWorkload(b, cfg)
}

// Ablation 3: AF drain rate (paper: 1/op for the ABtree; structures that
// free more than one node per op should drain faster).
func BenchmarkAblationAFDrainRate1(b *testing.B) { benchDrain(b, 1) }
func BenchmarkAblationAFDrainRate4(b *testing.B) { benchDrain(b, 4) }
func BenchmarkAblationAFDrainRate16(b *testing.B) {
	benchDrain(b, 16)
}

func benchDrain(b *testing.B, rate int) {
	cfg := cfgFor("debra_af", benchThreads)
	cfg.DrainRate = rate
	runWorkload(b, cfg)
}

// Ablation 4: limbo batch size (Experiment 2 fixes 32K in the paper).
func BenchmarkAblationBatchSize512(b *testing.B)  { benchBatch(b, 512) }
func BenchmarkAblationBatchSize2048(b *testing.B) { benchBatch(b, 2048) }
func BenchmarkAblationBatchSize8192(b *testing.B) { benchBatch(b, 8192) }

func benchBatch(b *testing.B, size int) {
	cfg := cfgFor("nbr", benchThreads)
	cfg.BatchSize = size
	runWorkload(b, cfg)
}

// Ablation 5: jemalloc arena count (default 4 per thread).
func BenchmarkAblationArenas1(b *testing.B) { benchArenas(b, 1) }
func BenchmarkAblationArenas4(b *testing.B) { benchArenas(b, 4) }

func benchArenas(b *testing.B, per int) {
	cfg := cfgFor("debra", benchThreads)
	cfg.ArenasPerThread = per
	runWorkload(b, cfg)
}

// Ablation 6: Periodic Token-EBR's check period k (paper: 100).
func BenchmarkAblationTokenPeriod10(b *testing.B)   { benchTokenK(b, 10) }
func BenchmarkAblationTokenPeriod100(b *testing.B)  { benchTokenK(b, 100) }
func BenchmarkAblationTokenPeriod1000(b *testing.B) { benchTokenK(b, 1000) }

func benchTokenK(b *testing.B, k int) {
	cfg := cfgFor("token_periodic", benchThreads)
	cfg.TokenCheckK = k
	runWorkload(b, cfg)
}

// Ablation 7: object pooling (paper footnote 3/4). AF with a pool bypasses
// the allocator almost entirely; comparing against plain AF quantifies how
// much of the win comes from making allocator interaction fast versus
// avoiding it.
func BenchmarkAblationAFPoolingOff(b *testing.B) { runWorkload(b, cfgFor("debra_af", benchThreads)) }
func BenchmarkAblationAFPoolingOn(b *testing.B) {
	cfg := cfgFor("debra_af", benchThreads)
	cfg.PoolCapacity = 1 << 14
	runWorkload(b, cfg)
}

// --- Scaling: the update workload on one P and on two ---

// BenchmarkUpdateScaling runs the repo benchmark's update_batchfree trial
// (abtree × debra on jemalloc, 8 simulated threads, a fixed op count) with
// GOMAXPROCS 1 and 2. cpu-ns/op is process CPU time, set-up included, per
// simulated op. A second P should raise simops/s and leave cpu-ns/op about
// where it was; cpu-ns/op growing with the P count is cache-line traffic
// between cores inside the harness (README.md, "Cross-core traffic").
func BenchmarkUpdateScaling(b *testing.B) {
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			if runtime.NumCPU() < procs {
				b.Skipf("%d cpus", runtime.NumCPU())
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := bench.DefaultWorkload(8)
			cfg.FixedOps = 100000
			var ops int64
			var wall time.Duration
			cpu0 := processCPU(b)
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				tr, err := bench.RunTrial(cfg)
				if err != nil {
					b.Fatal(err)
				}
				ops += tr.Ops
				wall += tr.Wall
			}
			cpu := processCPU(b) - cpu0
			b.ReportMetric(float64(ops)/wall.Seconds(), "simops/s")
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(ops), "cpu-ns/op")
		})
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
