package bench

import (
	"fmt"
	"sort"
)

// Op identifies one set operation drawn from an OpMix.
type Op uint8

const (
	OpInsert Op = iota
	OpDelete
	OpContains
)

// KeyDist yields the key stream for one simulated thread. Implementations
// carry per-thread RNG state and are not safe for concurrent use; the
// harness constructs one per thread.
type KeyDist interface {
	// Next returns the key for the thread's next operation.
	Next() int64
}

// OpMix yields the operation stream for one simulated thread. Like KeyDist,
// implementations are per-thread and stateful.
type OpMix interface {
	// Next returns the kind of the thread's next operation.
	Next() Op
}

// Workload is one benchmark scenario: it fabricates the per-thread key and
// operation streams for a trial. A fresh Workload instance is created per
// phase (see NewScenario), and the coordinator calls KeyDist/OpMix serially
// for every worker before releasing any of them, so implementations may
// share memoized tables (e.g. the zipfian zeta sum) across threads without
// locking.
type Workload interface {
	// Name is the registry name ("paper", "zipf", ...).
	Name() string
	// KeyDist returns tid's key stream for this trial.
	KeyDist(cfg *WorkloadConfig, tid int) KeyDist
	// OpMix returns tid's operation stream for this trial.
	OpMix(cfg *WorkloadConfig, tid int) OpMix
	// DefaultPhases builds the schedule a trial naming this scenario runs
	// when its WorkloadConfig.Phases is empty (see PhaseSpec); nil means the
	// one full-population phase of the paper's trial.
	DefaultPhases(cfg *WorkloadConfig) []PhaseSpec
}

// scenario implements Workload from two per-thread factory closures, plus
// an optional default phase schedule.
type scenario struct {
	name   string
	keys   func(cfg *WorkloadConfig, tid int) KeyDist
	ops    func(cfg *WorkloadConfig, tid int) OpMix
	phases func(cfg *WorkloadConfig) []PhaseSpec
}

func (s *scenario) Name() string { return s.name }

func (s *scenario) KeyDist(cfg *WorkloadConfig, tid int) KeyDist { return s.keys(cfg, tid) }

func (s *scenario) OpMix(cfg *WorkloadConfig, tid int) OpMix { return s.ops(cfg, tid) }

func (s *scenario) DefaultPhases(cfg *WorkloadConfig) []PhaseSpec {
	if s.phases == nil {
		return nil
	}
	return s.phases(cfg)
}

// scenarioFactories maps scenario names to constructors, mirroring
// smr.Names()/ds.Names() so scenarios are enumerable from tests and CLIs.
var scenarioFactories = map[string]func() Workload{}

// RegisterScenario adds a scenario to the registry. It panics on duplicate
// names; call it from init functions only.
func RegisterScenario(name string, f func() Workload) {
	if _, dup := scenarioFactories[name]; dup {
		panic(fmt.Sprintf("bench: scenario %q registered twice", name))
	}
	scenarioFactories[name] = f
}

// NewScenario constructs a fresh Workload by registry name. The empty name
// means "paper", the seed methodology.
func NewScenario(name string) (Workload, error) {
	if name == "" {
		name = "paper"
	}
	f, ok := scenarioFactories[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown scenario %q (have %v)", name, Scenarios())
	}
	return f(), nil
}

// Scenarios lists the registered scenario names in sorted order.
func Scenarios() []string {
	names := make([]string, 0, len(scenarioFactories))
	for name := range scenarioFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	// "paper" is the seed methodology — 50% insert / 50% delete over
	// uniform keys — with the per-thread RNG streams kept bit-identical to
	// the original RunTrial so existing tables and figures reproduce
	// byte-for-byte.
	RegisterScenario("paper", func() Workload {
		return &scenario{name: "paper", keys: newUniformKeys, ops: newUpdateHeavy}
	})
	// "read_mostly" is the classic 90% Contains / 5% Insert / 5% Delete
	// search-structure mix: far lower retire rate, so limbo bags fill
	// slowly and batch frees become rare.
	RegisterScenario("read_mostly", func() Workload {
		return &scenario{name: "read_mostly", keys: newUniformKeys, ops: newReadMostly}
	})
	// "zipf" keeps the 50/50 update mix but skews keys zipfian: a few hot
	// keys absorb most updates, concentrating contention and cross-thread
	// object flow on a small working set.
	RegisterScenario("zipf", func() Workload {
		return &scenario{name: "zipf", keys: newZipfKeysShared(), ops: newUpdateHeavy}
	})
	// "zipf_read" is the read-mostly mix under zipfian skew — the common
	// cache-like profile (hot reads, occasional churn).
	RegisterScenario("zipf_read", func() Workload {
		return &scenario{name: "zipf_read", keys: newZipfKeysShared(), ops: newReadMostly}
	})
	// "hotspot" drives 90% of operations into a small hot range whose
	// location shifts during the trial, so the allocator sees waves of
	// retirement move across the keyspace.
	RegisterScenario("hotspot", func() Workload {
		return &scenario{name: "hotspot", keys: newHotspotKeys, ops: newUpdateHeavy}
	})
	// "bursty" alternates churn windows (50/50 updates) with read-only
	// windows over uniform keys: retirement arrives in bursts and the
	// reclaimer's limbo drains between them.
	RegisterScenario("bursty", func() Workload {
		return &scenario{name: "bursty", keys: newUniformKeys, ops: newBurstMix}
	})
	// "churn" runs the paper's update-heavy mix under thread churn: the
	// default phase schedule alternates the full population with half of
	// it, so slots are vacated (limbo orphaned, caches flushed) and
	// recycled repeatedly — the regime where hazard-slot exhaustion,
	// orphan adoption, and grace periods over departed threads are
	// actually exercised.
	RegisterScenario("churn", func() Workload {
		return &scenario{
			name: "churn", keys: newUniformKeys, ops: newUpdateHeavy,
			phases: churnPhases,
		}
	})
	// "rampup" grows the live population from one worker toward the full
	// thread count, roughly doubling each phase: the reclaimer sees a
	// stream of joins against a warming allocator.
	RegisterScenario("rampup", func() Workload {
		return &scenario{
			name: "rampup", keys: newUniformKeys, ops: newUpdateHeavy,
			phases: rampupPhases,
		}
	})
	// "phase_shift" keeps the population fixed but alternates the workload
	// composition phase by phase — update-heavy churn, then read-mostly
	// quiet — so limbo fills in one phase and drains in the next.
	RegisterScenario("phase_shift", func() Workload {
		return &scenario{
			name: "phase_shift", keys: newUniformKeys, ops: newUpdateHeavy,
			phases: phaseShiftPhases,
		}
	})
}
