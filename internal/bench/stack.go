package bench

import (
	"sync/atomic"
	"time"

	"repro/internal/arrival"
	"repro/internal/clock"
	"repro/internal/ds"
	"repro/internal/simalloc"
	"repro/internal/smr"
	"repro/internal/timeline"
)

// Stack is the assembled experiment substrate for one trial: a simulated
// allocator, a reclaimer wired to it, a concurrent set on top, and an
// optional timeline recorder threaded through all three. Build one with
// NewStack from a full WorkloadConfig, drive the set, then Close it to
// release the remaining limbo.
type Stack struct {
	// Alloc is the simulated allocator at the bottom of the stack.
	Alloc simalloc.Allocator
	// Reclaimer frees retired nodes into Alloc.
	Reclaimer smr.Reclaimer
	// Set is the concurrent set the workload operates on.
	Set ds.Set
	// Recorder is non-nil when the configuration enabled recording.
	Recorder *timeline.Recorder

	cfg WorkloadConfig
	// cost is the configured machine model. The allocator runs it inside
	// the measured window and cost.Suspended() outside it (see newStack).
	cost simalloc.CostModel
	// windowBase is the allocator's snapshot at openWindow: Snapshot's
	// %free/%flush/%lock count time from here, so set-up time is not
	// charged to the window.
	windowBase simalloc.Stats
	stopped    atomic.Bool
	aborted    atomic.Bool
	closed     bool

	// faults is the trial's resolved fault plan; nil when cfg.Faults is
	// empty, so the no-fault batch edge pays one nil check.
	faults *faultEngine
	// arrivals is the trial's open-system engine; nil when cfg.Arrival is
	// empty, so the closed-loop batch edge pays one nil check.
	arrivals *arrivalEngine
	// heart is the ops-progress heartbeat: workers (and prefill) add each
	// completed batch. The watchdog declares a trial wedged when it stops
	// moving; stall faults measure their release span against it.
	heart atomic.Int64
	// phase is the running phase index, for diagnostics.
	phase atomic.Int64
}

// NewStack constructs the allocator, reclaimer and set for cfg and returns
// the stack fully costed: whatever the caller does next, prefill included,
// pays the configured cost model.
func NewStack(cfg WorkloadConfig) (*Stack, error) {
	s, err := newStack(cfg)
	if err != nil {
		return nil, err
	}
	s.openWindow()
	return s, nil
}

// newStack assembles the stack with the allocator's cost table suspended:
// modelled latency is busy work, and nothing reads how long construction
// (the set's root carve) or a prefill took. Every count — object IDs, page
// ownership, cache contents, Stats — is what the costed table would have
// produced. openWindow puts the configured table in force.
func newStack(cfg WorkloadConfig) (*Stack, error) {
	s := &Stack{cfg: cfg}

	acfg := simalloc.DefaultConfig(cfg.Threads)
	if cfg.Cost.ThreadsPerSocket != 0 {
		acfg.Cost = cfg.Cost
	}
	s.cost = acfg.Cost
	acfg.Cost = s.cost.Suspended()
	if cfg.TCacheCap > 0 {
		acfg.TCacheCap = cfg.TCacheCap
	}
	if cfg.FlushFraction > 0 {
		acfg.FlushFraction = cfg.FlushFraction
	}
	if cfg.ArenasPerThread > 0 {
		acfg.ArenasPerThread = cfg.ArenasPerThread
	}
	alloc, err := simalloc.New(cfg.Allocator, acfg)
	if err != nil {
		return nil, err
	}
	if cfg.PoolCapacity > 0 {
		alloc = smr.NewPoolAllocator(alloc, cfg.PoolCapacity)
	}
	s.Alloc = alloc

	if cfg.Record {
		capEach := cfg.RecorderCap
		if capEach <= 0 {
			capEach = DefaultRecorderCap
		}
		s.Recorder = timeline.NewRecorder(cfg.Threads, capEach)
		// Long free calls are recorded from the allocator's own slow-path
		// stamps: zero extra clock reads on the free path. (On a pooled
		// allocator the hook passes through to the base model.)
		alloc.SetFreeObserver(s.Recorder.ObserveFree)
	}

	// Knobs the workload leaves at zero take smr.DefaultConfig's values.
	reclaimer, err := smr.New(cfg.Reclaimer, smr.Config{
		Alloc: alloc, Threads: cfg.Threads,
		BatchSize: cfg.BatchSize, DrainRate: cfg.DrainRate,
		TokenCheckK: cfg.TokenCheckK, EraFreq: cfg.EraFreq,
		Recorder: s.Recorder, Stopped: s.stopped.Load,
	})
	if err != nil {
		return nil, err
	}
	s.Reclaimer = reclaimer

	set, err := ds.New(cfg.DataStructure, alloc, reclaimer)
	if err != nil {
		return nil, err
	}
	s.Set = set

	if s.faults, err = newFaultEngine(&cfg); err != nil {
		return nil, err
	}
	if s.arrivals, err = newArrivalEngine(&cfg); err != nil {
		return nil, err
	}
	if s.arrivals != nil {
		// Arrival admission and latency stamps read the cached coarse clock;
		// start its refresher before any worker needs it.
		clock.EnsureCoarse()
	}
	return s, nil
}

// setCost puts cm in force in the allocator. Call it only while no worker
// goroutine exists: the table is read without synchronization.
func (s *Stack) setCost(cm simalloc.CostModel) {
	if sw, ok := s.Alloc.(simalloc.CostSwapper); ok {
		sw.SwapCost(cm)
	}
}

// openWindow marks the instant before the measured workers start: from here
// the allocator charges the configured cost model, and Snapshot's allocator
// time shares count from here.
func (s *Stack) openWindow() {
	s.setCost(s.cost)
	s.windowBase = s.Alloc.Stats()
}

// Config returns the configuration the stack was built from.
func (s *Stack) Config() WorkloadConfig { return s.cfg }

// Join admits a new participant: the reclaimer recycles its most recently
// vacated slot (cold allocator cache included) and returns it as the
// caller's tid. It fails when every slot is occupied.
func (s *Stack) Join() (int, error) { return s.Reclaimer.Join() }

// Leave retires tid's participation across the stack: the reclaimer
// orphans its pending limbo for surviving threads to adopt and stops
// counting the slot toward grace periods, then the allocator flushes the
// slot's thread cache back to the shared pools with modeled cost. The
// caller must stop using tid until a Join hands the slot out again.
func (s *Stack) Leave(tid int) {
	s.Reclaimer.Leave(tid)
	// The vacated slot's staged timeline entries merge now — its ring must
	// be empty before a later Join hands the slot to another goroutine. The
	// cache flush is muted: departure teardown frees never produced timeline
	// events (a pooled allocator would otherwise feed the observer while
	// returning pooled objects through base.Free).
	s.Recorder.Merge(tid)
	s.Recorder.MuteFrees(tid)
	s.Alloc.FlushThreadCache(tid)
	s.Recorder.UnmuteFrees(tid)
}

// Stop ends the measured window: blocking grace-period waits inside the
// reclaimer observe it and bail out, so worker goroutines cannot wedge.
func (s *Stack) Stop() { s.stopped.Store(true) }

// Stopped reports whether Stop (or Close) has been called. Worker loops
// poll it as their exit condition.
func (s *Stack) Stopped() bool { return s.stopped.Load() }

// Abort ends the trial abnormally: it stops the window (releasing every
// stop-aware wait — grace periods, parked fault injections) and raises the
// aborted flag that FixedOps workers, which otherwise run their budget to
// completion, check at batch boundaries. The watchdog calls it when the
// heartbeat flatlines.
func (s *Stack) Abort() {
	s.aborted.Store(true)
	s.stopped.Store(true)
}

// Aborted reports whether the trial was aborted.
func (s *Stack) Aborted() bool { return s.aborted.Load() }

// Heartbeat returns the cumulative completed-batch op count, the progress
// signal the watchdog monitors.
func (s *Stack) Heartbeat() int64 { return s.heart.Load() }

// reapCrashed retires the slots of crash-faulted workers after every live
// worker has returned: each dead slot Leaves post-mortem, orphaning its
// stranded limbo so Close's Drain adopts and frees it — the participant
// registry's worst-case adoption path, exercised deliberately. Reaping is
// part of teardown, not the measured window; Snapshot runs first.
func (s *Stack) reapCrashed() {
	fe := s.faults
	if fe == nil {
		return
	}
	for w := range fe.state {
		if !fe.state[w].dead.Load() {
			continue
		}
		if slot := fe.state[w].slot.Load(); slot >= 0 {
			s.Leave(int(slot))
		}
	}
}

// Snapshot captures the paper's metric surface — throughput, peak memory,
// and the %free/%flush/%lock perf percentages — for a window that performed
// ops operations in wall time. Take it before Close: the paper's accounting
// is during-trial, before the final drain.
func (s *Stack) Snapshot(ops int64, wall time.Duration) TrialResult {
	var res TrialResult
	res.Scenario = s.cfg.Scenario
	res.Seed = s.cfg.Seed
	res.Ops = ops
	res.Wall = wall
	res.OpsPerSec = float64(ops) / wall.Seconds()
	res.Alloc = s.Alloc.Stats()
	res.SMR = s.Reclaimer.Stats()
	res.PeakBytes = res.Alloc.PeakBytes
	res.PeakMiB = float64(res.PeakBytes) / (1 << 20)
	// The shares are of window thread-time, so their numerators are the
	// window's too; res.Alloc itself stays cumulative, like its counts.
	res.PctFree = simalloc.PctOf(res.Alloc.FreeNanos-s.windowBase.FreeNanos, wall, s.cfg.Threads)
	res.PctFlush = simalloc.PctOf(res.Alloc.FlushNanos-s.windowBase.FlushNanos, wall, s.cfg.Threads)
	res.PctLock = simalloc.PctOf(res.Alloc.LockNanos-s.windowBase.LockNanos, wall, s.cfg.Threads)
	res.PeakLimbo = res.SMR.PeakLimbo
	res.PctStall = simalloc.PctOf(res.SMR.StallNanos, wall, s.cfg.Threads)
	res.Faults = s.faults.snapshot()
	res.Recorder = s.Recorder
	if h := s.arrivals.mergedHist(); h != nil {
		res.Arrival = arrival.Format(s.arrivals.spec)
		res.Latency = h
		res.LatP50Ns = h.Quantile(0.50)
		res.LatP99Ns = h.Quantile(0.99)
		res.LatP999Ns = h.Quantile(0.999)
		res.LatMaxNs = h.Max()
	}

	// Host-overhead self-report (see TrialResult). The allocator counts its
	// own stamps exactly (Stats.ClockReads — all on slow paths; tcache-hit
	// allocs and frees take none since the PR 4 dispatch surgery), the
	// reclaimer counts the stall-duration stamps (two per blocking
	// grace-period wait), and the recorder counts the stamps recording adds
	// on top — two per batch-free envelope; observed free calls and
	// coarse-clock marks take none — so the sum is exact, not an estimate.
	s.Recorder.MergeAll()
	res.Dropped = s.Recorder.Dropped()
	res.HostClockReads = res.Alloc.ClockReads + res.SMR.ClockReads + s.Recorder.ClockReads()
	res.HostOverheadNanos = int64(float64(res.HostClockReads) * clock.ReadCostNs())
	res.PctHostOverhead = simalloc.PctOf(res.HostOverheadNanos, wall, s.cfg.Threads)
	stampProvenance(&res)
	return res
}

// Close tears the stack down: it stops the trial and drains every thread's
// remaining limbo so the allocator's lifecycle checks stay clean. The drain
// runs with the cost table suspended — the measurements were taken by
// Snapshot, and nothing reads how long teardown took — so drain-time
// recorder events keep their envelopes with near-zero durations. Close is
// idempotent. Only call it after all worker goroutines have returned.
func (s *Stack) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.Stop()
	s.setCost(s.cost.Suspended())
	for tid := 0; tid < s.cfg.Threads; tid++ {
		s.Reclaimer.Drain(tid)
	}
	// Drain-time batch frees staged above (synchronous reclaimers record
	// their final bags, as they always did) reach the committed buffers
	// before any reader sees the recorder.
	s.Recorder.MergeAll()
}
