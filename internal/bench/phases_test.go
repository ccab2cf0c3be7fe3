package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/smr"
)

// churnSchedule alternates the full population with a single survivor,
// producing more join events than slots (>= 2x slot reuse at 4 threads:
// 9 joins against 4 slots).
func churnSchedule(threads, ops int) []PhaseSpec {
	ph := make([]PhaseSpec, 0, 7)
	for i := 0; i < 3; i++ {
		ph = append(ph, PhaseSpec{Live: threads, Ops: ops}, PhaseSpec{Live: 1, Ops: ops})
	}
	return append(ph, PhaseSpec{Live: threads, Ops: ops})
}

func churnConfig(reclaimer, dsName string) WorkloadConfig {
	cfg := DefaultWorkload(4)
	cfg.Reclaimer = reclaimer
	cfg.DataStructure = dsName
	cfg.KeyRange = 512
	cfg.BatchSize = 64
	cfg.Seed = 7
	return cfg
}

// TestChurnStressAllReclaimers is the churn correctness gate: for every
// reclaimer on every tree, a schedule with >= 2x slot reuse must complete
// (no grace period stalls on a departed thread — each phase is op-bounded,
// so a stall would hang the test), and teardown must drain every adopted
// orphan: zero limbo, freed == retired. Runs under -race in CI.
func TestChurnStressAllReclaimers(t *testing.T) {
	const perPhase = 150
	for _, dsName := range ds.Names() {
		for _, rec := range smr.Names() {
			t.Run(dsName+"/"+rec, func(t *testing.T) {
				cfg := churnConfig(rec, dsName)
				cfg.Phases = churnSchedule(cfg.Threads, perPhase)
				runs, _, err := resolveSchedule(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				st, err := NewStack(cfg)
				if err != nil {
					t.Fatal(err)
				}
				prefill(&cfg, st)
				total, _, err := runPhases(&cfg, st, runs)
				if err != nil {
					t.Fatal(err)
				}
				want := int64(perPhase) * int64(4*cfg.Threads+3)
				if total != want {
					t.Fatalf("ran %d ops, want %d", total, want)
				}
				st.Close()
				s := st.Reclaimer.Stats()
				if minJoins := int64(2 * cfg.Threads); s.Joins <= minJoins {
					t.Fatalf("joins = %d, want > %d (schedule must recycle slots >= 2x)", s.Joins, minJoins)
				}
				if rec == "none" {
					return // the leaky baseline never frees by design
				}
				if s.Limbo != 0 || s.Freed != s.Retired {
					t.Fatalf("leaked limbo at teardown: limbo=%d retired=%d freed=%d adopted=%d",
						s.Limbo, s.Retired, s.Freed, s.Adopted)
				}
			})
		}
	}
}

// TestPhasedTrialOpsCount pins the engine's op accounting: total ops is
// the sum of live x ops over the schedule.
func TestPhasedTrialOpsCount(t *testing.T) {
	cfg := DefaultWorkload(3)
	cfg.KeyRange = 512
	cfg.Phases = []PhaseSpec{
		{Live: 3, Ops: 100}, {Live: 1, Ops: 257}, {Live: 2, Ops: 64},
	}
	tr, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3*100 + 1*257 + 2*64); tr.Ops != want {
		t.Fatalf("ops = %d, want %d", tr.Ops, want)
	}
	// The stored schedule is fully resolved: explicit scenario per phase.
	if tr.Phases != "paper:3x100,paper:1x257,paper:2x64" {
		t.Fatalf("result schedule = %q", tr.Phases)
	}
	if tr.SMR.Joins == 0 || tr.SMR.Leaves == 0 {
		t.Fatalf("schedule did not exercise the lifecycle: %+v", tr.SMR)
	}
}

// TestSinglePhaseMatchesFixedOps pins that the trial of the paper is the
// schedule of one phase: for every reclaimer on every tree, a FixedOps
// config (the implicit phase, stored with no schedule) and the same phase
// spelled out in Phases are the same trial — bit-identical modeled stats at
// one thread. The last two rows run the implicit phase's other form, the
// Duration window, through the same coordinator: healthy, and wedged under
// the watchdog.
func TestSinglePhaseMatchesFixedOps(t *testing.T) {
	for _, dsName := range ds.Names() {
		for _, rec := range smr.Names() {
			t.Run(dsName+"/"+rec, func(t *testing.T) {
				base := parityConfig(rec, dsName)
				phased := base
				phased.FixedOps = 0
				phased.Phases = []PhaseSpec{{Live: 1, Ops: base.FixedOps}}
				a, err := RunTrial(base)
				if err != nil {
					t.Fatal(err)
				}
				b, err := RunTrial(phased)
				if err != nil {
					t.Fatal(err)
				}
				if modeledOf(a) != modeledOf(b) {
					t.Fatalf("single-phase trial diverged from FixedOps:\n fixed  %+v\n phased %+v", modeledOf(a), modeledOf(b))
				}
				if a.Phases != "" || b.Phases != "paper:1x4000" {
					t.Fatalf("stored schedules = %q, %q; want none for the implicit phase, paper:1x4000 spelled out", a.Phases, b.Phases)
				}
			})
		}
	}
	t.Run("duration window", func(t *testing.T) {
		cfg := tinyWorkload(2)
		tr, err := RunTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Phases != "" || tr.Ops <= 0 || tr.Wall < cfg.Duration {
			t.Fatalf("window trial: phases %q ops %d wall %v", tr.Phases, tr.Ops, tr.Wall)
		}
		if s := tr.SMR; s.Retired != s.Freed+s.Limbo {
			t.Fatalf("retired %d != freed %d + limbo %d at the snapshot", s.Retired, s.Freed, s.Limbo)
		}
	})
	t.Run("duration window wedged", func(t *testing.T) {
		// One thread: a window's healthy workers never run out of budget, so
		// the heartbeat flatlines only when every worker is wedged.
		cfg := wedgedConfig(t)
		cfg.Threads = 1
		cfg.FixedOps = 0
		cfg.Duration = time.Minute // the watchdog, not the window, must end it
		expectWatchdogAbort(t, cfg)
	})
}

// TestPhasedDeterministic: with every phase at Live 1, the measured part
// of the trial — lifecycle transitions included — is single-threaded and
// must be reproducible. The engine is driven directly (no prefill: the
// parallel prefill is the one nondeterministic stage any multi-thread
// trial has, phased or not).
func TestPhasedDeterministic(t *testing.T) {
	cfg := DefaultWorkload(3)
	cfg.KeyRange = 512
	cfg.BatchSize = 64
	cfg.Seed = 11
	cfg.Phases = []PhaseSpec{{Live: 1, Ops: 300}, {Live: 1, Ops: 300}, {Live: 1, Ops: 300}}
	run := func() modeledStats {
		runs, _, err := resolveSchedule(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		total, wall, err := runPhases(&cfg, st, runs)
		if err != nil {
			t.Fatal(err)
		}
		st.Stop()
		res := st.Snapshot(total, wall)
		st.Close()
		return modeledOf(res)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("phased trial not deterministic:\n %+v\n %+v", a, b)
	}
}

// TestPhasedAdoptionMidTrial: orphans from a shrink are adopted by the
// surviving worker during the following phase, not just at teardown.
func TestPhasedAdoptionMidTrial(t *testing.T) {
	cfg := DefaultWorkload(4)
	cfg.Reclaimer = "debra"
	cfg.KeyRange = 512
	cfg.BatchSize = 64
	cfg.Phases = []PhaseSpec{{Live: 4, Ops: 500}, {Live: 1, Ops: 2000}}
	tr, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SMR.Adopted == 0 {
		t.Fatalf("survivor adopted nothing mid-trial: %+v", tr.SMR)
	}
}

// TestPhasedScenarioDefaults: the churn/rampup/phase_shift scenarios ship
// default schedules, run end to end, and report them in the result.
func TestPhasedScenarioDefaults(t *testing.T) {
	for _, name := range []string{"churn", "rampup", "phase_shift"} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultWorkload(4)
			cfg.Scenario = name
			cfg.KeyRange = 512
			cfg.FixedOps = 100 // per-phase budget for the default schedule
			ph, err := EffectivePhases(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(ph) == 0 {
				t.Fatal("no default schedule")
			}
			tr, err := RunTrial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Phases != FormatPhases(ph) {
				t.Fatalf("result schedule %q != effective %q", tr.Phases, FormatPhases(ph))
			}
			if name != "phase_shift" && tr.SMR.Joins == 0 {
				t.Fatalf("%s ran without membership churn", name)
			}
		})
	}
	// Unphased scenarios must stay unphased.
	if ph, err := EffectivePhases(DefaultWorkload(2)); err != nil || ph != nil {
		t.Fatalf("paper scenario gained a schedule: %v, %v", ph, err)
	}
}

// badPhases are -phases values ParsePhases must reject.
var badPhases = []string{"4", "x", "ax5", "4x-1", "paper:zx1"}

// phasesIn is a -phases value in its canonical form.
const phasesIn = "paper:4x1000,2x500,read_mostly:0x0"

// TestParseFormatPhases pins the flag syntax round trip and its errors.
func TestParseFormatPhases(t *testing.T) {
	ph, err := ParsePhases(phasesIn)
	if err != nil {
		t.Fatal(err)
	}
	want := []PhaseSpec{
		{Scenario: "paper", Live: 4, Ops: 1000},
		{Live: 2, Ops: 500},
		{Scenario: "read_mostly"},
	}
	if len(ph) != len(want) {
		t.Fatalf("parsed %d phases, want %d", len(ph), len(want))
	}
	for i := range want {
		if ph[i] != want[i] {
			t.Fatalf("phase %d = %+v, want %+v", i, ph[i], want[i])
		}
	}
	if got := FormatPhases(ph); got != phasesIn {
		t.Fatalf("round trip = %q, want %q", got, phasesIn)
	}
	for _, bad := range badPhases {
		if _, err := ParsePhases(bad); err == nil {
			t.Errorf("ParsePhases(%q) accepted", bad)
		}
	}
	if ph, err := ParsePhases("  "); err != nil || ph != nil {
		t.Fatalf("blank schedule = %v, %v", ph, err)
	}
}

// FuzzParsePhases: ParsePhases never panics, and a schedule it accepts is a
// fixed point of FormatPhases — ParsePhases(FormatPhases(p)) == p.
func FuzzParsePhases(f *testing.F) {
	for _, in := range append([]string{phasesIn, "  "}, badPhases...) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		ph, err := ParsePhases(in)
		if err != nil {
			return
		}
		again, err := ParsePhases(FormatPhases(ph))
		if err != nil || !reflect.DeepEqual(again, ph) {
			t.Fatalf("ParsePhases(%q) = %+v renders as %q, which parses to %+v (err %v)", in, ph, FormatPhases(ph), again, err)
		}
	})
}

// TestRunTrialRejectsBadPhases pins schedule validation.
func TestRunTrialRejectsBadPhases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(*WorkloadConfig)
		wants string
	}{
		{"live above threads", func(c *WorkloadConfig) { c.Phases = []PhaseSpec{{Live: 9}} }, "live count"},
		{"negative ops", func(c *WorkloadConfig) { c.Phases = []PhaseSpec{{Ops: -1}} }, "op budget"},
		{"unknown scenario", func(c *WorkloadConfig) { c.Phases = []PhaseSpec{{Scenario: "nope"}} }, "unknown scenario"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultWorkload(2)
			tc.edit(&cfg)
			if _, err := RunTrial(cfg); err == nil || !strings.Contains(err.Error(), tc.wants) {
				t.Fatalf("err = %v, want %q", err, tc.wants)
			}
		})
	}
}
