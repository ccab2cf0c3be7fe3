// Package repro's root benchmarks regenerate every table and figure of
// "Are Your Epochs Too Epic? Batch Free Can Be Harmful" (PPoPP '24), plus
// ablations of the model's knobs (README.md, "Performance model" →
// "Ablations").
//
// Each benchmark reports paper-comparable metrics via b.ReportMetric:
// ops/s (throughput), peakMiB (peak mapped memory), and where relevant the
// perf percentages (%free, %flush, %lock). Run a single one with e.g.
//
//	go test -bench BenchmarkTable2 -benchtime 1x
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
	"repro/internal/simalloc"
)

// benchThreads is the scaled thread count for single-point benchmarks (the
// paper's 192 is used by the cmd/epochbench experiments; benchmarks use a
// smaller count so `go test -bench .` completes in minutes).
const benchThreads = 48

// benchDur keeps each trial short; the experiments CLI uses longer windows.
const benchDur = 120 * time.Millisecond

// runWorkload runs b.N trials of a configuration and reports the paper's
// metrics from the last.
func runWorkload(b *testing.B, cfg bench.WorkloadConfig) bench.TrialResult {
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
	return tr
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

// --- Figure 1: ABtree vs OCCtree under DEBRA and under leaking ---

func BenchmarkFig1_ABtreeDebra(b *testing.B) { runWorkload(b, cfgFor("debra", benchThreads)) }
func BenchmarkFig1_OCCtreeDebra(b *testing.B) {
	cfg := cfgFor("debra", benchThreads)
	cfg.DataStructure = "occtree"
	runWorkload(b, cfg)
}
func BenchmarkFig1_ABtreeLeak(b *testing.B) { runWorkload(b, cfgFor("none", benchThreads)) }
func BenchmarkFig1_OCCtreeLeak(b *testing.B) {
	cfg := cfgFor("none", benchThreads)
	cfg.DataStructure = "occtree"
	runWorkload(b, cfg)
}

// --- Figure 2 / Table 1: DEBRA overhead growth with thread count ---

func BenchmarkTable1_JEOverhead12(b *testing.B) { runWorkload(b, cfgFor("debra", 12)) }
func BenchmarkTable1_JEOverhead48(b *testing.B) { runWorkload(b, cfgFor("debra", 48)) }
func BenchmarkTable1_JEOverhead96(b *testing.B) { runWorkload(b, cfgFor("debra", 96)) }

func BenchmarkFig2_TimelineRecording(b *testing.B) {
	// Fig. 2's contribution is that recording timelines is nearly free;
	// benchmark the same workload with recording enabled.
	cfg := cfgFor("debra", benchThreads)
	cfg.Record = true
	runWorkload(b, cfg)
}

// --- Figure 3 / Table 2: batch free vs amortized free on jemalloc ---

func BenchmarkTable2_JEBatch(b *testing.B)     { runWorkload(b, cfgFor("debra", benchThreads)) }
func BenchmarkTable2_JEAmortized(b *testing.B) { runWorkload(b, cfgFor("debra_af", benchThreads)) }

// --- Figure 4: garbage smoothing (measured via limbo watermark) ---

func BenchmarkFig4_GarbageBatch(b *testing.B) {
	tr := runWorkload(b, cfgFor("debra", benchThreads))
	b.ReportMetric(float64(tr.SMR.Limbo), "limbo")
}
func BenchmarkFig4_GarbageAmortized(b *testing.B) {
	tr := runWorkload(b, cfgFor("debra_af", benchThreads))
	b.ReportMetric(float64(tr.SMR.Limbo), "limbo")
}

// --- Table 3: the other allocators ---

func benchAllocator(b *testing.B, allocator, reclaimer string) {
	cfg := cfgFor(reclaimer, benchThreads)
	cfg.Allocator = allocator
	runWorkload(b, cfg)
}

func BenchmarkTable3_TCBatch(b *testing.B)     { benchAllocator(b, "tcmalloc", "debra") }
func BenchmarkTable3_TCAmortized(b *testing.B) { benchAllocator(b, "tcmalloc", "debra_af") }
func BenchmarkTable3_MIBatch(b *testing.B)     { benchAllocator(b, "mimalloc", "debra") }
func BenchmarkTable3_MIAmortized(b *testing.B) { benchAllocator(b, "mimalloc", "debra_af") }

// --- Figures 5-10 / Table 4: the Token-EBR design sequence ---

func BenchmarkFig5_TokenNaive(b *testing.B) { runWorkload(b, cfgFor("token_naive", benchThreads)) }
func BenchmarkFig7_TokenPassFirst(b *testing.B) {
	runWorkload(b, cfgFor("token_pass", benchThreads))
}
func BenchmarkFig8_TokenPeriodic(b *testing.B) {
	runWorkload(b, cfgFor("token_periodic", benchThreads))
}
func BenchmarkFig9_TokenAmortized(b *testing.B) { runWorkload(b, cfgFor("token_af", benchThreads)) }

func BenchmarkTable4_TokenVariants(b *testing.B) {
	// One composite run per variant; ops/s of the last (token_af) is
	// reported, with per-variant sub-benchmarks above for detail.
	for _, name := range []string{"token_naive", "token_pass", "token_periodic", "token_af"} {
		cfg := cfgFor(name, benchThreads)
		if _, err := bench.RunTrial(cfg); err != nil {
			b.Fatal(err)
		}
	}
	runWorkload(b, cfgFor("token_af", benchThreads))
}

// --- Figure 11a (Experiment 1): the reclaimer field ---

func BenchmarkExp1_TokenAF(b *testing.B) { runWorkload(b, cfgFor("token_af", benchThreads)) }
func BenchmarkExp1_DebraAF(b *testing.B) { runWorkload(b, cfgFor("debra_af", benchThreads)) }
func BenchmarkExp1_NBRPlus(b *testing.B) { runWorkload(b, cfgFor("nbrplus", benchThreads)) }
func BenchmarkExp1_NBR(b *testing.B)     { runWorkload(b, cfgFor("nbr", benchThreads)) }
func BenchmarkExp1_Debra(b *testing.B)   { runWorkload(b, cfgFor("debra", benchThreads)) }
func BenchmarkExp1_QSBR(b *testing.B)    { runWorkload(b, cfgFor("qsbr", benchThreads)) }
func BenchmarkExp1_RCU(b *testing.B)     { runWorkload(b, cfgFor("rcu", benchThreads)) }
func BenchmarkExp1_IBR(b *testing.B)     { runWorkload(b, cfgFor("ibr", benchThreads)) }
func BenchmarkExp1_WFE(b *testing.B)     { runWorkload(b, cfgFor("wfe", benchThreads)) }
func BenchmarkExp1_HE(b *testing.B)      { runWorkload(b, cfgFor("he", benchThreads)) }
func BenchmarkExp1_HP(b *testing.B)      { runWorkload(b, cfgFor("hp", benchThreads)) }
func BenchmarkExp1_Leak(b *testing.B)    { runWorkload(b, cfgFor("none", benchThreads)) }

// --- Figure 11b (Experiment 2): AF vs ORIG pairs ---

func BenchmarkExp2_QSBROrig(b *testing.B)    { runWorkload(b, cfgFor("qsbr", benchThreads)) }
func BenchmarkExp2_QSBRAF(b *testing.B)      { runWorkload(b, cfgFor("qsbr_af", benchThreads)) }
func BenchmarkExp2_RCUOrig(b *testing.B)     { runWorkload(b, cfgFor("rcu", benchThreads)) }
func BenchmarkExp2_RCUAF(b *testing.B)       { runWorkload(b, cfgFor("rcu_af", benchThreads)) }
func BenchmarkExp2_HPOrig(b *testing.B)      { runWorkload(b, cfgFor("hp", benchThreads)) }
func BenchmarkExp2_HPAF(b *testing.B)        { runWorkload(b, cfgFor("hp_af", benchThreads)) }
func BenchmarkExp2_HEOrig(b *testing.B)      { runWorkload(b, cfgFor("he", benchThreads)) }
func BenchmarkExp2_HEAF(b *testing.B)        { runWorkload(b, cfgFor("he_af", benchThreads)) }
func BenchmarkExp2_IBROrig(b *testing.B)     { runWorkload(b, cfgFor("ibr", benchThreads)) }
func BenchmarkExp2_IBRAF(b *testing.B)       { runWorkload(b, cfgFor("ibr_af", benchThreads)) }
func BenchmarkExp2_NBROrig(b *testing.B)     { runWorkload(b, cfgFor("nbr", benchThreads)) }
func BenchmarkExp2_NBRAF(b *testing.B)       { runWorkload(b, cfgFor("nbr_af", benchThreads)) }
func BenchmarkExp2_NBRPlusOrig(b *testing.B) { runWorkload(b, cfgFor("nbrplus", benchThreads)) }
func BenchmarkExp2_NBRPlusAF(b *testing.B)   { runWorkload(b, cfgFor("nbrplus_af", benchThreads)) }
func BenchmarkExp2_WFEOrig(b *testing.B)     { runWorkload(b, cfgFor("wfe", benchThreads)) }
func BenchmarkExp2_WFEAF(b *testing.B)       { runWorkload(b, cfgFor("wfe_af", benchThreads)) }
func BenchmarkExp2_TokenOrig(b *testing.B)   { runWorkload(b, cfgFor("token", benchThreads)) }
func BenchmarkExp2_TokenAF(b *testing.B)     { runWorkload(b, cfgFor("token_af", benchThreads)) }

// --- Figures 12-14 (appendices C-D): DGT tree ---

func BenchmarkFig13_DGTDebra(b *testing.B) {
	cfg := cfgFor("debra", benchThreads)
	cfg.DataStructure = "dgtree"
	runWorkload(b, cfg)
}
func BenchmarkFig13_DGTDebraAF(b *testing.B) {
	cfg := cfgFor("debra_af", benchThreads)
	cfg.DataStructure = "dgtree"
	runWorkload(b, cfg)
}
func BenchmarkFig14_DGTTokenAF(b *testing.B) {
	cfg := cfgFor("token_af", benchThreads)
	cfg.DataStructure = "dgtree"
	runWorkload(b, cfg)
}

// --- Figures 15-16 (appendix E): other machine models ---

func BenchmarkFig15_Intel144TokenAF(b *testing.B) {
	cfg := cfgFor("token_af", benchThreads)
	cfg.Cost = simalloc.Intel144()
	runWorkload(b, cfg)
}
func BenchmarkFig16_AMD256TokenAF(b *testing.B) {
	cfg := cfgFor("token_af", benchThreads)
	cfg.Cost = simalloc.AMD256()
	runWorkload(b, cfg)
}

// --- Figure 17 / appendix G: timeline-heavy configurations ---

func BenchmarkFig17_VisibleFreeCalls(b *testing.B) {
	cfg := cfgFor("debra", benchThreads)
	cfg.Record = true
	tr := runWorkload(b, cfg)
	b.ReportMetric(float64(tr.Recorder.TotalEvents()), "events")
}

func BenchmarkAppG_TCMallocDebra96(b *testing.B) {
	cfg := cfgFor("debra", 96)
	cfg.Allocator = "tcmalloc"
	runWorkload(b, cfg)
}
func BenchmarkAppG_MIMallocDebra96(b *testing.B) {
	cfg := cfgFor("debra", 96)
	cfg.Allocator = "mimalloc"
	runWorkload(b, cfg)
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
