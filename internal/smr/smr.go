// Package smr implements the safe-memory-reclamation algorithms studied in
// "Are Your Epochs Too Epic? Batch Free Can Be Harmful" (PPoPP '24): DEBRA,
// QSBR, RCU, hazard pointers, hazard eras, interval-based reclamation, NBR,
// NBR+, wait-free eras, and the paper's Token-EBR variants — each available
// in its original batch-freeing form and in the paper's amortized-free (AF)
// form.
//
// In Go, reclamation is not needed for memory safety (the GC provides it);
// what this package reproduces is the *lifecycle and cost structure* of
// reclamation: retire into limbo bags, detect grace periods, and free
// batches into a simulated allocator (package simalloc) whose free path has
// the same locking discipline as jemalloc/tcmalloc/mimalloc. The paper's
// remote-batch-free pathology, and the amortized-free fix, both live in the
// interaction between this package's freeing policy and the allocator.
//
// A reclaimer is its grace-period rule. Each scheme file supplies its
// announcement state, BeginOp / EndOp / Retire, a grace-period test and an
// adoption point; the embedded core (core.go) supplies everything else —
// the freeing policy (freer.go), Leave / Drain bodies, Join, Stats, Diagnose,
// the registry name — once, for all of them.
package smr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/simalloc"
	"repro/internal/timeline"
)

// Reclaimer is the interface data structures use. A tid identifies the
// simulated thread and must be used by one goroutine at a time.
//
// Call sequence per operation:
//
//	r.BeginOp(tid)
//	... traversal, publishing protection for each visited node ...
//	... r.OnAlloc(tid, o) after allocating, r.Retire(tid, o) after unlinking ...
//	r.EndOp(tid)
//
// The trees publish per-node protection through Guard(tid)'s concrete
// handle (see guard.go), or not at all when it is nil. Protect(tid, slot,
// node) is the specification each guard is tested against.
type Reclaimer interface {
	// Name returns the registry name (e.g. "debra", "token_af").
	Name() string
	// BeginOp announces the start of a data-structure operation.
	BeginOp(tid int)
	// EndOp announces the end of the operation. Amortized-free reclaimers
	// drain a few queued objects here.
	EndOp(tid int)
	// OnAlloc lets era-based reclaimers stamp an object's birth era.
	OnAlloc(tid int, o *simalloc.Object)
	// Protect announces that tid may hold a reference to o. slot cycles
	// through a small per-thread window (hazard-pointer style); epoch-based
	// reclaimers ignore it.
	Protect(tid int, slot int, o *simalloc.Object)
	// Guard returns tid's zero-dispatch protection handle, whose Protect is
	// observably identical to Protect above; nil when Protect is a no-op.
	Guard(tid int) *Guard
	// Retire hands an unlinked object to the reclaimer; it will be freed
	// to the allocator once no thread can hold a reference.
	Retire(tid int, o *simalloc.Object)
	// Join occupies a vacated participant slot (most recently vacated
	// first) and returns it as the caller's tid. It fails when every slot
	// is occupied. Slots the constructor created all start occupied, so
	// Join only succeeds after a Leave — fixed-population trials never
	// call either.
	Join() (int, error)
	// Leave retires tid's participation: its announcements are cleared so
	// no grace period waits on the slot, its pending limbo is handed to
	// the shared orphan queue for surviving participants to adopt, and
	// the slot becomes recyclable by a later Join. The caller must stop
	// using tid until a Join hands the slot out again.
	Leave(tid int)
	// Drain frees everything still pending for tid without waiting for
	// grace periods — including any orphaned limbo still awaiting
	// adoption. Only call after all threads stopped operating.
	Drain(tid int)
	// Stats returns an aggregated snapshot.
	Stats() Stats
}

// Stats aggregates reclaimer activity.
type Stats struct {
	// Epochs counts global epoch advances (or grace periods / scan rounds
	// for non-epoch schemes).
	Epochs int64
	// Retired and Freed count objects through the limbo lifecycle.
	Retired, Freed int64
	// Limbo is the number of objects currently retired but not freed
	// (including objects queued by an amortized freer and orphans awaiting
	// adoption).
	Limbo int64
	// Joins and Leaves count participant lifecycle events; Adopted counts
	// orphaned limbo objects re-homed by surviving participants. All three
	// stay zero in fixed-population trials.
	Joins, Leaves, Adopted int64
	// PeakLimbo is the high-water mark of Limbo over the trial: the most
	// retired-but-unfreed objects that ever coexisted. It is the paper's
	// bounded-garbage dichotomy as a single number — a stalled or crashed
	// thread holds it near BatchSize for hazard-family schemes but lets it
	// grow with trial length for epoch-based ones.
	//
	// A thread adds its retires to the shared count limboPublishEvery (32)
	// at a time, and always before it takes a free off, so the mark never
	// reads high. With Threads == 1 it is exact (a peak is the level just
	// before a free); otherwise it reads low by less than
	// (Threads-1) × limboPublishEvery, the retires the other threads had
	// not yet added when the peak passed. Stats adds what is still pending,
	// so the figure read after the threads stop includes every retire.
	PeakLimbo int64
	// StallNanos is host wall time spent inside blocking grace-period waits
	// (RCU synchronize, NBR neutralization rounds), and StallWaits counts
	// them. Non-blocking schemes leave both zero: their reclamation stalls
	// show up as PeakLimbo growth instead.
	StallNanos, StallWaits int64
	// ClockReads counts the clock.Now stamps the stall instrumentation
	// takes (two per blocking wait); the harness adds it to the exact
	// host-overhead self-report.
	ClockReads int64
}

// Config carries construction parameters shared by all reclaimers.
type Config struct {
	// Alloc is the allocator objects are freed to. Required.
	Alloc simalloc.Allocator
	// Threads is the number of simulated threads. Required.
	Threads int
	// BatchSize is the limbo-bag size that triggers reclamation for
	// bag-threshold schemes (HP/HE/IBR/NBR/WFE). The paper's Experiment 2
	// uses 32768 for all algorithms. Defaults to 2048 (scaled for the
	// shorter simulated trials; configurable per experiment).
	BatchSize int
	// DrainRate is how many queued objects an amortized freer releases per
	// operation. The paper uses 1 for the ABtree (≤1 free/op on average).
	DrainRate int
	// TokenCheckK is Periodic Token-EBR's token-check period (paper: 100).
	TokenCheckK int
	// EraFreq advances the era clock every EraFreq retires (HE/IBR/WFE).
	EraFreq int
	// Recorder, when non-nil, receives timeline events (batch frees, long
	// free calls, epoch advances, garbage samples).
	Recorder *timeline.Recorder
	// Stopped, when non-nil, lets blocking grace-period waits (RCU
	// synchronize, NBR neutralization) bail out once the harness has
	// stopped the trial, so worker goroutines cannot wedge waiting for
	// acknowledgements that will never arrive.
	Stopped func() bool
}

// DefaultConfig returns the configuration used across the reproduction. It
// is the one defaults table: a Config built by hand has its unset (zero or
// negative) fields filled from these same values at construction.
func DefaultConfig(alloc simalloc.Allocator, threads int) Config {
	return Config{
		Alloc:       alloc,
		Threads:     threads,
		BatchSize:   2048,
		DrainRate:   1,
		TokenCheckK: 100,
		EraFreq:     64,
	}
}

// Validate reports the configuration errors construction would otherwise
// panic on. New runs it before invoking a constructor, so bad configurations
// surface as ordinary errors through the harness (bench.RunTrial) instead
// of panics; the panics in fillDefaults remain only as a backstop for
// direct constructor misuse.
func (c *Config) Validate() error {
	if c.Alloc == nil {
		return fmt.Errorf("smr: Config.Alloc is required")
	}
	if c.Threads <= 0 {
		return fmt.Errorf("smr: Config.Threads must be positive (got %d)", c.Threads)
	}
	return nil
}

func (c *Config) fillDefaults() {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	d := DefaultConfig(c.Alloc, c.Threads)
	for _, f := range []struct {
		v   *int
		def int
	}{
		{&c.BatchSize, d.BatchSize}, {&c.DrainRate, d.DrainRate},
		{&c.TokenCheckK, d.TokenCheckK}, {&c.EraFreq, d.EraFreq},
	} {
		if *f.v <= 0 {
			*f.v = f.def
		}
	}
}

// threadCtr is a padded per-thread counter block. Owners update with atomic
// ops; snapshots read with atomic loads.
type threadCtr struct {
	retired int64
	freed   int64
	limbo   int64
	// published is how many of retired the owner has added to env.limboNow.
	published int64
	_         [4]int64
}

// limboPublishEvery is how many retires a thread lets pile up before it adds
// them to the shared limbo count. It bounds how low Stats.PeakLimbo can read.
const limboPublishEvery = 32

// env is the shared plumbing inside every reclaimer's core: allocator,
// per-thread counters, participant registry, epoch counter and timeline
// recorder.
type env struct {
	cfg    Config
	alloc  simalloc.Allocator
	rec    *timeline.Recorder
	ctr    []threadCtr
	reg    *participants
	epochs atomic.Int64

	// limboNow follows the per-thread limbo sum on one shared counter, behind
	// by each thread's unpublished retires, and limboPeak is its high-water
	// (Stats.PeakLimbo). Every thread writes limboNow, so both keep off the
	// lines of the fields above, which every operation reads.
	limboNow  isolated64
	limboPeak isolated64

	// Blocking grace-period wait accounting (slow paths only).
	stallNanos atomic.Int64
	stallWaits atomic.Int64
	clockReads atomic.Int64

	// glogMu serializes garbage-log samples (rare: once per epoch change).
	glogMu sync.Mutex
}

// newEnv builds the plumbing for a cfg whose defaults are filled (newCore).
func newEnv(cfg Config) env {
	return env{
		cfg:   cfg,
		alloc: cfg.Alloc,
		rec:   cfg.Recorder,
		ctr:   make([]threadCtr, cfg.Threads),
		reg:   newParticipants(cfg.Threads),
	}
}

// stopped reports whether the harness has ended the trial.
func (e *env) stopped() bool {
	return e.cfg.Stopped != nil && e.cfg.Stopped()
}

func (e *env) noteRetire(tid int) {
	c := &e.ctr[tid]
	r := atomic.AddInt64(&c.retired, 1)
	atomic.AddInt64(&c.limbo, 1)
	if r-atomic.LoadInt64(&c.published) >= limboPublishEvery {
		e.publishLimbo(c, 0)
	}
}

func (e *env) noteFree(tid int, n int64) {
	c := &e.ctr[tid]
	atomic.AddInt64(&c.freed, n)
	atomic.AddInt64(&c.limbo, -n)
	e.publishLimbo(c, n)
}

// publishLimbo adds the retires c's owner has not yet published to limboNow,
// raises limboPeak to the level that gives, and then takes freed off — one
// shared read-modify-write for all three. Only c's owner may call it.
func (e *env) publishLimbo(c *threadCtr, freed int64) {
	r := atomic.LoadInt64(&c.retired)
	pending := r - atomic.LoadInt64(&c.published)
	atomic.StoreInt64(&c.published, r)
	if n := e.limboNow.v.Add(pending-freed) + freed; n > e.limboPeak.v.Load() {
		e.raisePeak(n)
	}
}

// raisePeak lifts the limbo high-water to n. Out of line so publishLimbo's
// common case (not at a new high-water) stays a load + compare.
func (e *env) raisePeak(n int64) {
	for {
		p := e.limboPeak.v.Load()
		if n <= p || e.limboPeak.v.CompareAndSwap(p, n) {
			return
		}
	}
}

// peakLimbo is limboPeak, or the current level counting the retires no thread
// has published yet when that is higher. limboNow is read before the pending
// counts so that a publication in between is missed, not counted twice.
func (e *env) peakLimbo() int64 {
	now := e.limboNow.v.Load()
	for i := range e.ctr {
		c := &e.ctr[i]
		published := atomic.LoadInt64(&c.published)
		now += atomic.LoadInt64(&c.retired) - published
	}
	return max(now, e.limboPeak.v.Load())
}

// leave vacates tid's slot, publishing its pending retires first: whoever
// adopts and frees the objects subtracts them from limboNow.
func (e *env) leave(tid int) {
	e.publishLimbo(&e.ctr[tid], 0)
	e.reg.leave(tid)
}

// noteStallWait accounts one blocking grace-period wait that began at the
// clock.Now stamp t0. Called (via defer) from RCU synchronize and NBR
// neutralization — once per filled bag, never on the per-op path — and its
// two stamps per wait are counted so the harness's host-overhead
// self-report stays exact.
func (e *env) noteStallWait(t0 int64) {
	e.stallNanos.Add(clock.Now() - t0)
	e.stallWaits.Add(1)
	e.clockReads.Add(2)
}

// totalLimbo sums unreclaimed garbage across threads; used for the paper's
// garbage-per-epoch samples.
func (e *env) totalLimbo() int64 {
	var n int64
	for i := range e.ctr {
		n += atomic.LoadInt64(&e.ctr[i].limbo)
	}
	return n
}

// sampleGarbage records a garbage sample and an epoch-advance dot for tid.
// Both are staged marks: a coarse-clock stamp into the thread's staging
// ring, no host clock reads, clamping deferred to the batch-edge merge.
func (e *env) sampleGarbage(tid int) {
	if e.rec == nil {
		return
	}
	e.rec.StageMark(tid, timeline.KindEpochAdvance, e.epochs.Load())
	e.rec.StageMark(tid, timeline.KindGarbageSample, e.totalLimbo())
}

func (e *env) stats() Stats {
	var s Stats
	for i := range e.ctr {
		s.Retired += atomic.LoadInt64(&e.ctr[i].retired)
		s.Freed += atomic.LoadInt64(&e.ctr[i].freed)
		s.Limbo += atomic.LoadInt64(&e.ctr[i].limbo)
	}
	s.Epochs = e.epochs.Load()
	s.Joins = e.reg.joins.Load()
	s.Leaves = e.reg.leaves.Load()
	s.Adopted = e.reg.adopted.Load()
	s.PeakLimbo = e.peakLimbo()
	s.StallNanos = e.stallNanos.Load()
	s.StallWaits = e.stallWaits.Load()
	s.ClockReads = e.clockReads.Load()
	return s
}

// pad64 is an atomic int64 padded to a cache line after the value only. In a
// slice (announcement arrays) that keeps element i off element i+1's line; as
// a struct field v still shares a line with the field before it.
type pad64 struct {
	v atomic.Int64
	_ [7]int64
}

// isolated64 is an atomic int64 padded on both sides, for a word many threads
// write that sits among fields many threads read: wherever it is declared,
// and however the struct is aligned, v shares its line with no neighbour.
type isolated64 struct {
	_ [7]int64
	v atomic.Int64
	_ [7]int64
}

// padPtr is a cache-line padded hazard slot. It holds the published
// object's address, uintptr(unsafe.Pointer(o)), or 0 for none: storing a
// uintptr is an intrinsic XCHG with the same sequentially consistent order
// as an atomic.Pointer store, without the runtime call and write barrier
// Go wraps around a pointer store. Nothing turns the address back into a
// pointer; HP's scan only compares addresses.
//
// A slot therefore does not keep its object alive, and need not: during a
// trial every Object stays reachable, from a tree node or a retire list or
// else from its allocator's free lists, since no simalloc model ever drops
// one; and Go's heap does not move objects. So while the reclaimer lives a
// published address cannot come to name another Object.
type padPtr struct {
	p atomic.Uintptr
	_ [7]int64
}
