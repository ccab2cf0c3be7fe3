package bench

import (
	"testing"
	"time"

	"repro/internal/simalloc"
)

// BenchmarkRetireDrainCycle measures the full reclamation lifecycle per
// operation: alloc → retire into the limbo bag → (eventual) free back into
// the allocator, for a batch-freeing and an amortized-freeing reclaimer.
func BenchmarkRetireDrainCycle(b *testing.B) {
	for _, name := range []string{"debra", "debra_af", "token_af"} {
		b.Run(name, func(b *testing.B) {
			cfg := DefaultWorkload(1)
			cfg.Reclaimer, cfg.Cost = name, simalloc.Uniform()
			st, err := NewStack(cfg)
			if err != nil {
				b.Fatal(err)
			}
			r, al := st.Reclaimer, st.Alloc
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.BeginOp(0)
				o := al.Alloc(0, 64)
				r.OnAlloc(0, o)
				r.Retire(0, o)
				r.EndOp(0)
			}
			b.StopTimer()
			st.Close()
		})
	}
}

// benchmarkTrial runs short end-to-end trials; the recorded variant carries
// the full timeline-stamping load on every free. The simops/s metric is the
// simulated throughput and pct_host is the trial's own host-overhead
// self-report.
func benchmarkTrial(b *testing.B, record bool) {
	cfg := DefaultWorkload(4)
	cfg.Duration = 10 * time.Millisecond
	cfg.KeyRange = 1 << 12
	cfg.Record = record
	var ops int64
	var host float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := RunTrial(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ops += tr.Ops
		host += tr.PctHostOverhead
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
	b.ReportMetric(host/float64(b.N), "pct_host")
}

func BenchmarkTrialUnrecorded(b *testing.B) { benchmarkTrial(b, false) }
func BenchmarkTrialRecorded(b *testing.B)   { benchmarkTrial(b, true) }

// BenchmarkTrialPaired interleaves one unrecorded and one recorded trial per
// iteration and reports the recorded/unrecorded throughput ratio directly.
// The separate benchmarks above run as two blocks tens of seconds apart, so
// on shared runners host drift lands asymmetrically in whichever block it
// overlaps and can dwarf the real recording overhead; pairing each recorded
// trial with an adjacent unrecorded one cancels the drift. The overhead gate
// in scripts/bench-json.sh scores this ratio.
func BenchmarkTrialPaired(b *testing.B) {
	cfg := DefaultWorkload(4)
	cfg.Duration = 10 * time.Millisecond
	cfg.KeyRange = 1 << 12
	var opsU, opsR int64
	var host float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Record = false
		tr, err := RunTrial(cfg)
		if err != nil {
			b.Fatal(err)
		}
		opsU += tr.Ops
		cfg.Record = true
		tr, err = RunTrial(cfg)
		if err != nil {
			b.Fatal(err)
		}
		opsR += tr.Ops
		host += tr.PctHostOverhead
	}
	b.ReportMetric(float64(opsR)/float64(opsU)*100, "rec_ratio_pct")
	b.ReportMetric(host/float64(b.N), "rec_pct_host")
}

// BenchmarkTrialSetup measures what a trial costs outside its window:
// construction, prefill and teardown, exactly as runTrialInner performs them
// (cost table suspended), with no window in between. The three shapes are
// the repository benchmark's: a sweep trial (one thread, 512 keys), the
// update trials (8 threads, 2^15 keys, abtree × debra) and the read-mostly
// one (occtree × hp, one fresh node per prefilled key).
func BenchmarkTrialSetup(b *testing.B) {
	shapes := []struct {
		name, set, reclaimer string
		threads              int
		keyRange             int64
	}{
		{"sweep1t", "abtree", "debra", 1, 512},
		{"update8t", "abtree", "debra", 8, 1 << 15},
		{"readhazard8t", "occtree", "hp", 8, 1 << 15},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			cfg := DefaultWorkload(sh.threads)
			cfg.DataStructure, cfg.Reclaimer, cfg.KeyRange = sh.set, sh.reclaimer, sh.keyRange
			for i := 0; i < b.N; i++ {
				st, err := newStack(cfg)
				if err != nil {
					b.Fatal(err)
				}
				prefill(&cfg, st)
				st.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/trial")
		})
	}
}
