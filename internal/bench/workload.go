// Package bench is the trial path of the harness that reproduces "Are Your
// Epochs Too Epic?": one trial over the simulated allocators (package
// simalloc), the reclaimers (package smr) and the concurrent sets (package
// ds). The paper's tables and figures are stated over it in package
// experiments.
//
// The harness is layered. Stack assembly (Stack, NewStack)
// builds the allocator + reclaimer + set + recorder substrate for one
// trial. The scenario engine (Workload, KeyDist, OpMix, and the scenario
// registry behind Scenarios/NewScenario) decides what the simulated threads
// do to that substrate: the paper's own methodology — prefill to the
// steady-state size, then run a 50% insert / 50% delete workload over a
// uniform key range — is the "paper" scenario, and further scenarios vary
// the key distribution (zipfian, shifting hotspot) and the operation mix
// (read-mostly, bursty). What a trial's workers do with a scenario is a
// schedule of phases (phases.go) — one full-population phase unless the
// config or its scenario says otherwise — and RunTrial is the one path that
// composes the layers and reports throughput, peak memory, and allocator
// overhead percentages.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arrival"
	"repro/internal/simalloc"
	"repro/internal/smr"
	"repro/internal/timeline"
)

// WorkloadConfig describes one trial.
type WorkloadConfig struct {
	// Scenario names the registered workload scenario (see Scenarios()).
	// Empty means "paper", the seed methodology.
	Scenario string
	// DataStructure is "abtree", "occtree" or "dgtree".
	DataStructure string
	// Reclaimer is any name from smr.Names().
	Reclaimer string
	// Allocator is "jemalloc", "tcmalloc" or "mimalloc".
	Allocator string
	// Threads is the number of simulated threads (goroutines).
	Threads int
	// KeyRange is the size of the uniform key universe; the steady-state
	// set size is KeyRange/2. The paper uses 2×10⁷; the scaled default is
	// 1<<15.
	KeyRange int64
	// Duration is the measured window. The paper uses 5 s; the scaled
	// default is 300 ms.
	Duration time.Duration
	// BatchSize, DrainRate, TokenCheckK, EraFreq feed smr.Config.
	BatchSize, DrainRate, TokenCheckK, EraFreq int
	// Cost is the simulated machine; zero value means Intel192.
	Cost simalloc.CostModel
	// TCacheCap and FlushFraction override the allocator defaults when
	// non-zero (used by ablations).
	TCacheCap     int
	FlushFraction float64
	// ArenasPerThread overrides jemalloc's arena multiplier when non-zero.
	ArenasPerThread int
	// PoolCapacity, when non-zero, wraps the allocator in smr.PoolAllocator
	// with per-thread per-class pools of this capacity — the object-pooling
	// ablation (README.md, "Performance model" → "Ablations", row 7; the
	// optimization the paper declines).
	PoolCapacity int
	// Record enables timeline recording with RecorderCap events/thread.
	Record      bool
	RecorderCap int
	// Seed varies the per-thread RNG streams.
	Seed uint64
	// FixedOps, when positive, replaces the wall-clock window with a
	// deterministic trial: every thread runs exactly FixedOps operations
	// per phase and Duration is ignored. With Threads == 1 the whole trial —
	// op streams, allocator traffic, reclaimer decisions — is
	// bit-reproducible, which is what the fixed-population golden pins and
	// gives the grid a variance-free trial type.
	FixedOps int

	// Scenario knobs; zero values mean the scenario defaults.

	// ZipfTheta is the zipfian skew parameter in (0,1) for the "zipf*"
	// scenarios (default 0.99, the YCSB constant).
	ZipfTheta float64
	// HotFraction is the hot range's share of the keyspace for the
	// "hotspot" scenario (default 0.1); 90% of accesses land in it.
	HotFraction float64
	// HotShiftOps is how many per-thread ops pass between hotspot shifts
	// (default KeyRange).
	HotShiftOps int
	// BurstOps is the per-thread window length, in ops, of the "bursty"
	// scenario's alternating churn and read windows (default 4096). It
	// shapes only that scenario's operation mix; it is unrelated to
	// PhaseSpec.Ops, which bounds whole trial phases.
	BurstOps int

	// Phases is the trial's schedule: it runs in order, each phase driving
	// Live workers for Ops operations each under the phase's scenario.
	// Workers beyond a phase's live count Leave the participant registry
	// (limbo orphaned for survivors to adopt, allocator cache flushed with
	// modeled cost) and park; re-grown phases Join again, recycling vacated
	// slots. Every phase named here is op-bounded — Duration is ignored, and
	// FixedOps is the per-worker default for phases whose Ops is zero.
	// Empty means the scenario's default schedule (Workload.DefaultPhases),
	// else one phase: all Threads, for FixedOps each or for Duration.
	Phases []PhaseSpec

	// Faults, when non-empty, is the trial's injected fault plan: seeded,
	// deterministic stall/wedge/crash/slowdown events fired at the 64-op
	// batch boundaries of chosen workers (see FaultSpec). The no-fault hot
	// path is untouched. Composes with Phases — trigger points count each
	// worker's cumulative ops across the whole schedule.
	Faults []FaultSpec `json:",omitempty"`
	// Deadline, when positive, arms the trial watchdog: if no worker
	// completes a batch for this long, the trial is aborted with per-thread
	// diagnostics and RunTrial returns a *TrialError instead of hanging.
	// Zero disables the watchdog (the historical behavior). The deadline
	// never affects a healthy trial's measurements, so results keys ignore
	// it (results.Normalize zeroes it).
	Deadline time.Duration `json:",omitempty"`
	// Arrival, when non-empty, turns the closed loop into an open system:
	// each worker admits ops against a seeded deterministic arrival process
	// (arrival.Parse syntax — "poisson:RATE", "bursty:RATE@PERIOD~DUTY",
	// "diurnal:RATE@PERIOD~AMP"; rates are per-worker arrivals/sec) and the
	// trial reports queueing latency percentiles. Empty (or "none") is the
	// historical closed loop, bit-identical to pre-arrival trials. A
	// watchdog Deadline must exceed the process's longest idle gap (e.g. a
	// bursty off-window): waiting for the next arrival does not beat the
	// heartbeat.
	Arrival string `json:",omitempty"`
}

// DefaultRecorderCap is the per-thread event capacity of a recorded trial
// whose RecorderCap is unset.
const DefaultRecorderCap = 100000

// DefaultWorkload returns the scaled-down version of the paper's
// methodology for the given thread count. The reclaimer knobs are
// smr.DefaultConfig's.
func DefaultWorkload(threads int) WorkloadConfig {
	d := smr.DefaultConfig(nil, threads)
	return WorkloadConfig{
		Scenario:      "paper",
		DataStructure: "abtree",
		Reclaimer:     "debra",
		Allocator:     "jemalloc",
		Threads:       threads,
		KeyRange:      1 << 15,
		Duration:      300 * time.Millisecond,
		BatchSize:     d.BatchSize,
		DrainRate:     d.DrainRate,
		TokenCheckK:   d.TokenCheckK,
		Cost:          simalloc.Intel192(),
		RecorderCap:   DefaultRecorderCap,
		Seed:          1,
	}
}

// TrialResult captures one trial's measurements, taken at the moment the
// measured window closed (before the final drain), matching the paper's
// during-trial accounting.
type TrialResult struct {
	// Scenario is the workload scenario the trial ran.
	Scenario string
	// Phases is the resolved phase schedule the trial ran, in the
	// ParsePhases syntax; empty for the implicit single phase. Stored
	// results are therefore self-describing about thread churn.
	Phases string `json:",omitempty"`
	// Seed is the per-thread RNG stream seed the trial actually used (after
	// any TrialSeeds chaining), so a stored result can be traced back to —
	// and re-executed with — the exact streams that produced it.
	Seed uint64
	// Ops and OpsPerSec are completed set operations in the window.
	Ops       int64
	OpsPerSec float64
	// PeakBytes is the allocator's mapped high-water mark; PeakMiB is the
	// same in MiB (the unit of Fig. 1b/1d).
	PeakBytes int64
	PeakMiB   float64
	// Alloc and SMR are the substrate snapshots.
	Alloc simalloc.Stats
	SMR   smr.Stats
	// PctFree, PctFlush, PctLock are the paper's perf percentages: share
	// of total thread-time spent in free, in cache flushes, and blocked on
	// allocator locks.
	PctFree, PctFlush, PctLock float64
	// PeakLimbo is the trial's unreclaimed-object high-water mark
	// (smr.Stats.PeakLimbo surfaced as a first-class comparable metric):
	// the bounded-garbage dichotomy under stalled or crashed threads.
	PeakLimbo int64
	// PctStall is the share of thread-time spent in blocking grace-period
	// waits (smr.Stats.StallNanos), comparable with PctFree/PctFlush.
	PctStall float64 `json:",omitempty"`
	// Faults counts the injected faults by kind; all zero for no-fault
	// trials.
	Faults FaultStats `json:",omitempty"`
	// Arrival is the resolved open-system arrival process the trial ran
	// (canonical arrival.Format form); empty for closed-loop trials, in
	// which case every latency field below is zero and Latency is nil.
	Arrival string `json:",omitempty"`
	// LatP50Ns/LatP99Ns/LatP999Ns/LatMaxNs are queueing-latency quantiles
	// in nanoseconds over every completed op: completion sim-time minus
	// arrival sim-time, the open-system tail the paper's bounded-vs-
	// unbounded dichotomy predicts a stall should blow up.
	LatP50Ns  int64 `json:",omitempty"`
	LatP99Ns  int64 `json:",omitempty"`
	LatP999Ns int64 `json:",omitempty"`
	LatMaxNs  int64 `json:",omitempty"`
	// Latency is the full merged log-bucketed histogram behind the
	// quantiles (sparse in JSON); nil for closed-loop trials.
	Latency *arrival.Hist `json:",omitempty"`
	// Error carries the abort reason of a watchdog-aborted trial; empty on
	// success. The full diagnostics ride the *TrialError RunTrial returns.
	Error string `json:",omitempty"`
	// Host, GoVersion, and Procs are execution provenance: the hostname,
	// Go toolchain version, and GOMAXPROCS the trial ran under. Stamped on
	// every trial so a store merged from several fleet workers stays
	// auditable — a surprising number traces back to the machine that
	// produced it. None of these are hashed into keys (the schema version
	// already is): a trial's identity is its configuration, and provenance
	// is testimony about one execution of it.
	Host      string `json:",omitempty"`
	GoVersion string `json:",omitempty"`
	Procs     int    `json:",omitempty"`
	// Host-overhead self-report: how much wall time the harness spent on
	// measurement itself rather than modeled work. HostClockReads is the
	// allocator's exact stamp count (simalloc.Stats.ClockReads — slow paths
	// only; cache-hit allocs and frees are unstamped) plus the recorder's
	// exact count of the stamps recording added (two per batch-free
	// envelope; observed free calls and coarse-clock marks add none);
	// HostOverheadNanos multiplies it by the calibrated cost of one clock
	// read, and PctHostOverhead expresses that as a share of available
	// thread-time, comparable with PctFree/PctFlush/PctLock. Use it to
	// judge how much the measurement tax dilutes the modeled numbers.
	HostClockReads    int64
	HostOverheadNanos int64
	PctHostOverhead   float64
	// Dropped counts recordable timeline events lost to full per-thread
	// recorder buffers — truncation, visible here and in the CSV/ASCII
	// headers so silently clipped timelines cannot masquerade as complete.
	// Sub-threshold free calls are filtered by design and never counted.
	// Always zero when recording was off.
	Dropped int64 `json:",omitempty"`
	// Wall is the actual measured-window duration.
	Wall time.Duration
	// ElapsedNanos is the trial's total wall time — prefill, measured
	// window, and teardown included — stamped by RunTrial. It is a measured
	// field like Wall or the provenance above: results keys hash only the
	// configuration, so it never moves a TrialKey. The grid's cost model
	// (grid.CostModel) feeds on it to schedule repeat/resume sweeps by
	// measured cost instead of static estimates.
	ElapsedNanos int64 `json:",omitempty"`
	// Recorder holds timeline events when recording was enabled. It is
	// excluded from JSON so results can be persisted (see internal/results).
	Recorder *timeline.Recorder `json:"-"`
}

// provenance is the per-process execution provenance stamped into every
// TrialResult, resolved once (hostname via one syscall at first use).
var provenance = sync.OnceValues(func() (host string, gover string) {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return host, runtime.Version()
})

// stampProvenance fills the TrialResult provenance fields (see TrialResult).
func stampProvenance(res *TrialResult) {
	res.Host, res.GoVersion = provenance()
	res.Procs = runtime.GOMAXPROCS(0)
}

// rng is a per-thread xorshift generator; math/rand's global lock would
// serialize 192 worker goroutines.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// intn uses the generator's high bits, which mix much faster than the low
// bits across xorshift steps.
func (r *rng) intn(n int64) int64 { return int64((r.next() >> 17) % uint64(n)) }

// opBatchSize is the per-thread stream batch: keys and op kinds are drawn
// from the scenario in blocks of this size, so the two KeyDist/OpMix
// interface calls, the stop-flag load, and the yield check all run once per
// batch boundary instead of inside the per-op path. 64 ops is small enough
// that threads still interleave at sub-quantum granularity (a quantum is
// thousands of ops) and the measured window stays tight.
const opBatchSize = 64

// opStream is one thread's pre-drawn operation batch. KeyDist and OpMix are
// independent RNG streams, so drawing keys and kinds block-wise yields
// exactly the per-op (key, kind) pairs the former interleaved loop drew —
// the "paper" scenario's bit-compatibility pin (TestPaperScenarioStreams-
// MatchSeedFormulas) is unaffected.
type opStream struct {
	keys  [opBatchSize]int64
	kinds [opBatchSize]Op
}

func (s *opStream) refill(kd KeyDist, om OpMix, n int) {
	for i := 0; i < n; i++ {
		s.keys[i] = kd.Next()
	}
	for i := 0; i < n; i++ {
		s.kinds[i] = om.Next()
	}
}

// autoYieldStride is the yield policy: the per-thread op count between
// scheduler yields. Simulated threads are goroutines, and without explicit
// yields one runs a whole scheduler quantum (~10 ms, thousands of operations)
// before the next gets the P. When the trial oversubscribes GOMAXPROCS the
// stride is one batch, so runnable threads rotate every 64 ops — coarse
// enough to amortize the Gosched, fine enough that threads interleave far
// below a quantum. With true parallelism (threads <= GOMAXPROCS) goroutines
// already interleave on distinct Ps and the Go scheduler preempts
// asynchronously, so a four-batch stride suffices as a fairness backstop.
// TestAutoYieldPreservesObjectFlow pins both strides and what the policy
// must preserve.
func autoYieldStride(threads int) int {
	if threads > runtime.GOMAXPROCS(0) {
		return opBatchSize
	}
	return 4 * opBatchSize
}

// afterPrefill, when armed via OnFirstPrefillDone, fires exactly once: after
// the first RunTrial prefill to complete anywhere in the process.
var afterPrefill atomic.Pointer[func()]

// OnFirstPrefillDone arms f to run once, immediately after the next trial's
// prefill completes and before its measured window opens. cmd/epochgrid
// uses it to start -cpuprofile/-memprofile capture past the prefill, so a
// single-trial profile covers only the measured window.
func OnFirstPrefillDone(f func()) { afterPrefill.Store(&f) }

// prefill inserts random keys in parallel until the set holds half the key
// range, the paper's steady-state size. Prefill batches feed the stack's
// heartbeat so an armed watchdog covers the prefill too, and are the set's
// grace-period edges (ds.Set.Quiesce).
func prefill(cfg *WorkloadConfig, st *Stack) {
	set := st.Set
	target := cfg.KeyRange / 2
	var wg sync.WaitGroup
	for tid := 0; tid < cfg.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer set.Park(tid)
			r := newRNG(cfg.Seed + uint64(tid)*0x517cc1b727220a95 + 11)
			for set.Size() < target {
				set.Quiesce(tid)
				for i := 0; i < 64; i++ {
					set.Insert(tid, r.intn(cfg.KeyRange))
				}
				st.heart.Add(64)
				runtime.Gosched()
			}
		}(tid)
	}
	wg.Wait()
}

// runWorker is one simulated thread's measured loop for one phase: draw a
// batch of keys and op kinds, execute it, repeat until the phase's op
// budget is spent (budget 0: until the Duration window's Stop), a watchdog
// abort, or a crash fault ends it. The per-op path contains only the set
// call itself; stream draws, the stop check, the yield policy, the timeline
// staging-ring merge, the set's grace-period edge (ds.Set.Quiesce), the
// heartbeat, and the fault hook all live on batch boundaries.
//
// w is the worker index — stable across slot recycling, equal to tid
// while the population never shrinks — and keys the fault engine's
// per-worker schedules.
func runWorker(cfg *WorkloadConfig, st *Stack, w, tid int, kd KeyDist, om OpMix, budget int) int64 {
	set := st.Set
	rec := st.Recorder // nil-safe: Merge on a nil recorder is a no-op
	fe := st.faults
	if fe != nil {
		fe.enter(w, tid)
		defer fe.exit()
	}
	set.Quiesce(tid)
	defer set.Park(tid)
	ae := st.arrivals
	// An open-system worker drops any backlog that accumulated while it was
	// not running — trial start and phase dispatch gaps both land here — so
	// the first admitted op arrived after this instant.
	ae.resync(w)
	var s opStream
	local := int64(0)
	fixed := int64(budget)
	stride := int64(autoYieldStride(cfg.Threads))
	sinceYield := int64(0)
	for {
		n := opBatchSize
		if fixed > 0 {
			if local >= fixed || st.Aborted() {
				break
			}
			if rem := fixed - local; rem < int64(n) {
				n = int(rem)
			}
		} else if st.Stopped() {
			break
		}
		if ae != nil {
			// Open system: shrink the batch to the ops that have actually
			// arrived, waiting out the gap when none have. Zero means the
			// trial stopped while waiting.
			if n = ae.admit(st, w, n); n == 0 {
				break
			}
		}
		s.refill(kd, om, n)
		for i := 0; i < n; i++ {
			key := s.keys[i]
			switch s.kinds[i] {
			case OpInsert:
				set.Insert(tid, key)
			case OpDelete:
				set.Delete(tid, key)
			default:
				set.Contains(tid, key)
			}
		}
		local += int64(n)
		if ae != nil {
			ae.complete(w, n)
		}
		rec.Merge(tid)
		set.Quiesce(tid)
		st.heart.Add(int64(n))
		if fe != nil && fe.onBatch(st, w, tid, n) {
			// Crash fault: exit without Leave, stranding the slot's limbo.
			// The staged timeline entries merged above, so the abandoned
			// ring is empty; the trial-end reaper Leaves the slot. The set
			// is parked all the same: the worker holds no node here.
			return local
		}
		if sinceYield += int64(n); sinceYield >= stride {
			sinceYield = 0
			runtime.Gosched()
		}
	}
	// The final (possibly partial) batch's entries are merged above; a
	// leftover can only exist if the loop exited before reaching a boundary,
	// which it cannot — but phase workers park after this return, so leave
	// the ring verifiably empty either way.
	rec.Merge(tid)
	return local
}

// RunTrial executes one trial, and there is one way through it: validate,
// resolve the schedule (one phase unless the config or its scenario says
// otherwise), assemble the stack, prefill to the steady-state size, open the
// window, let the coordinator release the parked workers phase by phase,
// snapshot, tear down. Only the window between prefill and snapshot pays
// the allocator's modelled cost table; construction, prefill and teardown
// run it suspended (see newStack). The measured clock (Wall) starts inside
// the coordinator, once the first phase's streams exist and just before its
// workers are released (see runPhases). The result carries the trial's
// total wall time (ElapsedNanos), stamped on success and on
// watchdog-aborted partial results alike, so stored sweeps learn real
// per-trial costs.
func RunTrial(cfg WorkloadConfig) (TrialResult, error) {
	t0 := time.Now()
	res, err := runTrialInner(cfg)
	res.ElapsedNanos = int64(time.Since(t0))
	return res, err
}

func runTrialInner(cfg WorkloadConfig) (TrialResult, error) {
	if cfg.Threads <= 0 {
		return TrialResult{}, fmt.Errorf("bench: Threads must be positive")
	}
	if cfg.KeyRange < 2 {
		return TrialResult{}, fmt.Errorf("bench: KeyRange must be >= 2")
	}
	if cfg.FixedOps < 0 {
		return TrialResult{}, fmt.Errorf("bench: FixedOps must be >= 0")
	}
	runs, implicit, err := resolveSchedule(&cfg)
	if err != nil {
		return TrialResult{}, err
	}
	// Construction and prefill run the allocator at zero modelled cost;
	// openWindow, below, costs everything the workers do.
	st, err := newStack(cfg)
	if err != nil {
		return TrialResult{}, err
	}
	// The watchdog (if cfg.Deadline arms one) covers everything from here on:
	// prefill, the measured window, and phase transitions all feed the
	// heartbeat it monitors.
	wd := startWatchdog(st, cfg.Deadline)
	defer wd.stop()
	prefill(&cfg, st)
	st.openWindow()
	if f := afterPrefill.Swap(nil); f != nil {
		(*f)()
	}
	// Anchor the open-system arrival origin now, after prefill, so the
	// measured window opens with an empty queue (nil-safe; no-op when
	// closed-loop).
	st.arrivals.open()

	var (
		ops  int64
		wall time.Duration
		perr error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ops, wall, perr = runPhases(&cfg, st, runs)
	}()
	select {
	case <-done:
	case <-wd.firedCh():
		// Aborted: workers observe it at batch boundaries and stop-aware
		// waits release, so the coordinator normally returns within the
		// grace window even for a wedged trial.
		select {
		case <-done:
		case <-time.After(abortGrace):
			return abandonedResult(&cfg, wd)
		}
	}
	// Workers are done; retire the watchdog before teardown so a slow final
	// drain cannot fire it spuriously. trialErr is stable after stop.
	wd.stop()
	if perr != nil {
		st.Close()
		return TrialResult{}, perr
	}
	// The stop flag is raised only now for op-bounded schedules (for the
	// reclaimers' blocking-wait bail-outs during teardown); then the
	// crash-faulted slots are reaped — after every worker has returned, so
	// their stranded limbo becomes orphans for Close's drain to adopt.
	st.Stop()
	st.reapCrashed()
	res := st.Snapshot(ops, wall)
	if !implicit {
		res.Phases = FormatPhases(specsOf(runs))
	}
	// Hygiene: release remaining limbo so the allocator's lifecycle checks
	// stay clean. Measurements above were taken first, as in the paper.
	st.Close()
	if terr := wd.trialErr(); terr != nil {
		res.Error = terr.Reason
		return res, terr
	}
	return res, nil
}

// TrialSeeds returns the per-trial seed chain fed to successive trials of
// a configuration whose base seed is base: seed_i depends on all
// previous links, so trials of one configuration never share RNG streams.
// The chain is part of the stored-results contract (internal/results hashes
// the chained seed into each TrialKey); changing it invalidates every
// existing store.
func TrialSeeds(base uint64, n int) []uint64 {
	if n < 1 {
		n = 1
	}
	seeds := make([]uint64, n)
	s := base
	for i := range seeds {
		s = s*31 + uint64(i) + 1
		seeds[i] = s
	}
	return seeds
}
