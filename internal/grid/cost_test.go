package grid

import (
	"slices"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/results"
)

// costCfg builds a deterministic config whose static cost is controlled by
// threads × ops.
func costCfg(threads, ops int, seed uint64) bench.WorkloadConfig {
	c := bench.DefaultWorkload(threads)
	c.FixedOps = ops
	c.Duration = 0
	c.Seed = seed
	return c
}

// TestStaticCostMonotonicity pins the invariant LPT ordering rests on: more
// threads or more ops never estimates cheaper, and a faulted or open-system
// variant never estimates cheaper than its healthy closed-loop control.
func TestStaticCostMonotonicity(t *testing.T) {
	base := costCfg(2, 1000, 1)
	for _, tc := range []struct {
		name string
		grow func(bench.WorkloadConfig) bench.WorkloadConfig
	}{
		{"threads", func(c bench.WorkloadConfig) bench.WorkloadConfig { c.Threads *= 2; return c }},
		{"ops", func(c bench.WorkloadConfig) bench.WorkloadConfig { c.FixedOps *= 2; return c }},
		{"duration", func(c bench.WorkloadConfig) bench.WorkloadConfig {
			c.FixedOps = 0
			c.Duration = 600 * time.Millisecond
			return c
		}},
	} {
		small, big := base, tc.grow(base)
		if StaticCost(big) < StaticCost(small) {
			t.Errorf("%s: bigger config estimated cheaper: %.0f < %.0f",
				tc.name, StaticCost(big), StaticCost(small))
		}
	}
	// Growing duration further must also grow cost.
	d1, d2 := base, base
	d1.FixedOps, d2.FixedOps = 0, 0
	d1.Duration, d2.Duration = 100*time.Millisecond, 400*time.Millisecond
	if StaticCost(d2) < StaticCost(d1) {
		t.Errorf("duration growth estimated cheaper: %.0f < %.0f", StaticCost(d2), StaticCost(d1))
	}
	// Fault and arrival variants never undercut the healthy control.
	for _, kind := range []string{"stall", "wedge", "slowdown", "crash"} {
		faulted := base
		faulted.Faults = []bench.FaultSpec{{Kind: kind, Worker: 0, At: 100}}
		if StaticCost(faulted) < StaticCost(base) {
			t.Errorf("fault %s estimated cheaper than healthy: %.0f < %.0f",
				kind, StaticCost(faulted), StaticCost(base))
		}
	}
	open := base
	open.Arrival = "poisson:100000"
	if StaticCost(open) < StaticCost(base) {
		t.Errorf("open-system variant estimated cheaper than closed loop: %.0f < %.0f",
			StaticCost(open), StaticCost(base))
	}
	// Phased configs account every phase's live×ops.
	phased := base
	phased.Phases = []bench.PhaseSpec{{Live: 2, Ops: 1000}, {Live: 2, Ops: 1000}}
	onePhase := base
	onePhase.Phases = []bench.PhaseSpec{{Live: 2, Ops: 1000}}
	if StaticCost(phased) < StaticCost(onePhase) {
		t.Errorf("two phases estimated cheaper than one: %.0f < %.0f",
			StaticCost(phased), StaticCost(onePhase))
	}
}

// TestStaticCostResolvesTheSchedule: a scenario's default schedule and the
// same schedule spelled out in cfg.Phases are one trial and cost the same —
// with an op budget (CI's churn-smoke) and without one, where neither is
// priced as the Duration window a scheduled trial never opens.
func TestStaticCostResolvesTheSchedule(t *testing.T) {
	for _, ops := range []int{200, 0} {
		byDefault := costCfg(4, ops, 1)
		byDefault.Scenario = "churn"
		byDefault.Duration = 300 * time.Millisecond
		phases, err := bench.EffectivePhases(byDefault)
		if err != nil || len(phases) != 8 {
			t.Fatalf("churn schedule = %v, %v; want eight phases", phases, err)
		}
		spelled := byDefault
		spelled.Phases = phases
		var work float64
		for _, ph := range phases {
			work += float64(ph.Live * ph.Ops)
		}
		if got, want := StaticCost(byDefault), StaticCost(spelled); got != want || got != 4*work {
			t.Errorf("ops=%d: default schedule costs %.0f, spelled out %.0f, want 4 × %.0f", ops, got, want, work)
		}
	}
}

// TestCostModelMeasuredOverridesStatic pins the two-tier estimate: a group
// with stored measurements is estimated by its mean elapsed time (however
// wrong the static prior was), and a never-measured group is scaled by the
// learned measured/static calibration ratio.
func TestCostModelMeasuredOverridesStatic(t *testing.T) {
	small := costCfg(1, 1000, 7)
	big := costCfg(8, 4000, 7)

	m := NewCostModel(nil)
	smallGroup, bigGroup := results.GroupOf(small), results.GroupOf(big)
	// Static tier first: with no observations the ordering is purely static.
	estBig, _ := m.EstimateGroup(bigGroup, StaticCost(big))
	estSmall, _ := m.EstimateGroup(smallGroup, StaticCost(small))
	if estBig <= estSmall {
		t.Fatalf("static tier inverted: big=%.0f small=%.0f", estBig, estSmall)
	}
	// Feed measurements that contradict the static prior: the "small" config
	// actually takes far longer (say it thrashes). Measured must win.
	m.ObserveGroup(smallGroup, StaticCost(small), int64(400*time.Millisecond))
	m.ObserveGroup(smallGroup, StaticCost(small), int64(600*time.Millisecond))
	if est, measured := m.EstimateGroup(smallGroup, StaticCost(small)); !measured || est != float64(500*time.Millisecond) {
		t.Fatalf("EstimateGroup(small) = %.0f, measured=%v; want the measured mean 500ms", est, measured)
	}
	// The never-measured big config is now calibrated through the ratio:
	// still static-ordered, but in nanosecond-comparable units (> 0).
	if est, measured := m.EstimateGroup(bigGroup, StaticCost(big)); measured || est <= 0 {
		t.Fatalf("calibrated estimate for unmeasured config = %.0f, measured=%v; want > 0, unmeasured", est, measured)
	}

	// Seeding from a store picks up persisted elapsed times; the seed of the
	// record differs but the GroupKey matches, so repeat sweeps with fresh
	// seed chains still hit the measured tier.
	st := results.NewMemStore()
	tr := bench.TrialResult{Seed: small.Seed, ElapsedNanos: int64(250 * time.Millisecond)}
	if err := st.Append(results.NewRecord(small, tr)); err != nil {
		t.Fatal(err)
	}
	reseeded := small
	reseeded.Seed = 99 // different trial, same group
	m2 := NewCostModel(st)
	if est, _ := m2.EstimateGroup(results.GroupOf(reseeded), StaticCost(reseeded)); est != float64(250*time.Millisecond) {
		t.Fatalf("store-seeded estimate = %.0f, want the stored elapsed mean", est)
	}
}

// TestElapsedNanosDoesNotMoveKeys pins the schema contract the measured
// model depends on: elapsed time is a measurement, so two records of one
// config differing only in ElapsedNanos share a TrialKey (and resume/dedupe
// stay sound).
func TestElapsedNanosDoesNotMoveKeys(t *testing.T) {
	cfg := costCfg(2, 500, 3)
	r1 := results.NewRecord(cfg, bench.TrialResult{Seed: cfg.Seed, ElapsedNanos: 1})
	r2 := results.NewRecord(cfg, bench.TrialResult{Seed: cfg.Seed, ElapsedNanos: 1 << 40})
	if r1.Key != r2.Key || r1.Key != results.KeyOf(cfg) {
		t.Fatalf("ElapsedNanos moved the TrialKey: %s vs %s", r1.Key, r2.Key)
	}
	if r1.ElapsedNanos != 1 || r2.ElapsedNanos != 1<<40 {
		t.Fatalf("records lost their elapsed stamp: %d, %d", r1.ElapsedNanos, r2.ElapsedNanos)
	}
}

// TestSerialOrderPinned is the bit-compatibility pin: with Parallel <= 1,
// trials execute strictly in ExpandTasks order no matter what the scheduler
// does for parallel sweeps — the golden baselines depend on it.
func TestSerialOrderPinned(t *testing.T) {
	// Heterogeneous on purpose: under cost ordering these would re-sort.
	cfgs := []bench.WorkloadConfig{
		costCfg(1, 100, 1), costCfg(8, 4000, 2), costCfg(2, 50, 3),
	}
	var got []string
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		got = append(got, results.KeyOf(cfg))
		return bench.TrialResult{Seed: cfg.Seed, Ops: 1, OpsPerSec: 1}, nil
	})
	r := &Runner{Parallel: 1}
	if _, err := r.Run(cfgs, 2); err != nil {
		t.Fatal(err)
	}
	_, tasks := ExpandTasks(cfgs, 2, nil, 0)
	want := make([]string, len(tasks))
	for i, task := range tasks {
		want[i] = results.KeyOf(task.Cfg)
	}
	if len(got) != len(want) {
		t.Fatalf("executed %d trials, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("serial execution order diverged from expansion order at %d:\n got %v\nwant %v",
				i, got, want)
		}
	}
}

// TestCostOrderedDispatch pins the Parallel > 1 scheduler: with a budget of
// one token every execution serializes, so the observed start order IS the
// dispatch order — which must be descending estimated cost, estimated from
// the live model at every start.
func TestCostOrderedDispatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfgs    []bench.WorkloadConfig
		trials  int
		elapsed map[int]int64 // FixedOps -> the ElapsedNanos the double reports
		want    []int         // FixedOps in start order
	}{
		{
			name: "static",
			cfgs: []bench.WorkloadConfig{
				costCfg(1, 100, 1), costCfg(1, 400, 2), costCfg(1, 200, 3), costCfg(1, 300, 4),
			},
			trials: 1,
			want:   []int{400, 300, 200, 100},
		},
		{
			// The runner follows the live model, like the coordinator. The 400
			// group measures what its static cost promised (1000 ns a unit);
			// the 200 group's first trial then measures next to nothing, so
			// its second seed falls behind the 100 group, which the calibrated
			// prior still holds at ~66,667 ns. An order sorted once before the
			// first start would run 200 twice before any 100.
			name: "live model",
			cfgs: []bench.WorkloadConfig{
				costCfg(1, 400, 1), costCfg(1, 200, 2), costCfg(1, 100, 3),
			},
			trials:  2,
			elapsed: map[int]int64{400: 400_000, 200: 1, 100: 100_000},
			want:    []int{400, 400, 200, 100, 100, 200},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []int
			swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
				got = append(got, cfg.FixedOps)
				return bench.TrialResult{Seed: cfg.Seed, Ops: 1, OpsPerSec: 1, ElapsedNanos: tc.elapsed[cfg.FixedOps]}, nil
			})
			r := &Runner{Parallel: 2, Budget: 1}
			sums, err := r.Run(tc.cfgs, tc.trials)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("dispatch order not descending estimated cost: got %v, want %v", got, tc.want)
			}
			// Results still return in input order regardless of execution order.
			for i, s := range sums {
				if s.Cfg.FixedOps != tc.cfgs[i].FixedOps {
					t.Fatalf("summary %d out of input order: ops=%d want %d", i, s.Cfg.FixedOps, tc.cfgs[i].FixedOps)
				}
			}
		})
	}
}

// TestMakespanSchedulerGain is the cost order's proof: a seeded heterogeneous
// synthetic sweep (12 cheap 1-thread trials expanded first, one expensive
// 8-thread trial last — the adversarial order for expansion-order dispatch)
// where cost-ordered dispatch must beat expansion order on makespan. Trial
// "work" is a deterministic sleep proportional to the config's declared ops,
// so the measured gain is pure scheduling, not noise. The control arm is the
// queue's expansion order at Parallel > 1, which no Runner field selects: the
// test calls the unexported run. The analytic ratio is ~1.5x; the gate is
// 1.25x at Parallel=4, and Parallel=8 is logged only.
func TestMakespanSchedulerGain(t *testing.T) {
	if testing.Short() {
		t.Skip("timing benchmark; skipped in -short")
	}
	const perOp = 25 * time.Microsecond
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		d := time.Duration(cfg.FixedOps) * perOp
		time.Sleep(d)
		return bench.TrialResult{Seed: cfg.Seed, Ops: int64(cfg.FixedOps),
			OpsPerSec: 1, ElapsedNanos: int64(d)}, nil
	})
	var cfgs []bench.WorkloadConfig
	for i := 0; i < 12; i++ {
		cfgs = append(cfgs, costCfg(1, 2000, uint64(10+i))) // 50ms each
	}
	cfgs = append(cfgs, costCfg(8, 6000, 99)) // 150ms, 8 budget tokens

	run := func(parallel int, expansionOrder bool) time.Duration {
		r := &Runner{Parallel: parallel, Budget: 16}
		t0 := time.Now()
		if _, err := r.run(cfgs, 1, expansionOrder); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	for _, parallel := range []int{4, 8} {
		fifo := run(parallel, true)
		cost := run(parallel, false)
		ratio := float64(fifo) / float64(cost)
		t.Logf("makespan: parallel=%d fifo_ms=%d cost_ms=%d ratio=%.3f",
			parallel, fifo.Milliseconds(), cost.Milliseconds(), ratio)
		if parallel == 4 && ratio < 1.25 {
			t.Errorf("cost-ordered dispatch gained only %.3fx over expansion order at parallel=%d", ratio, parallel)
		}
	}
}
