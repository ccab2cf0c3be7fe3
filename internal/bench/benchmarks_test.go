package bench

import (
	"math"
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
// self-report. TestRecordingOverheadBudget gates the pair; the repository
// benchmark records it per run as timeline.pct_host and
// timeline.recorded_ratio_pct.
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

// TestRecordingOverheadBudget is the recorder's budget: a recorded trial
// keeps >= 95% of an unrecorded one's throughput and self-reports < 2% host
// overhead. Each round interleaves 20 unrecorded/recorded pairs so host drift
// lands on both sides alike; drift only ever depresses a round, so the best
// of three rounds is scored, each metric on its own.
func TestRecordingOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; skipped in -short")
	}
	const rounds, pairs = 3, 20
	cfg := DefaultWorkload(4)
	cfg.Duration = 10 * time.Millisecond
	cfg.KeyRange = 1 << 12
	bestRatio, bestHost := 0.0, math.Inf(1)
	for range rounds {
		var opsU, opsR int64
		var host float64
		for range pairs {
			for _, record := range []bool{false, true} {
				cfg.Record = record
				tr, err := RunTrial(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if record {
					opsR += tr.Ops
					host += tr.PctHostOverhead
				} else {
					opsU += tr.Ops
				}
			}
		}
		ratio := float64(opsR) / float64(opsU) * 100
		t.Logf("recorded/unrecorded %.1f%%, recorded pct_host %.3f", ratio, host/pairs)
		bestRatio, bestHost = max(bestRatio, ratio), min(bestHost, host/pairs)
	}
	if bestRatio < 95 {
		t.Errorf("recorded trials kept %.1f%% of unrecorded throughput, want >= 95%%", bestRatio)
	}
	if bestHost >= 2 {
		t.Errorf("recorded pct_host %.3f, want < 2", bestHost)
	}
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
