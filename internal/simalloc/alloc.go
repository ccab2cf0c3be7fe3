package simalloc

import (
	"fmt"
	"sync/atomic"
)

// FreeObserver receives the stamps an allocator already took around a Free
// call's slow path (tcache flush, central spill, remote push) for its own
// statistics. Fast-path frees — the ones with no modeled cost and no stamps
// — are never reported: a free call can only reach a latency threshold by
// hitting a stamped slow path, so observing the existing stamps records
// every long free call with zero additional clock reads. startNs and endNs
// are clock.Now values bracketing the slow path.
type FreeObserver func(tid int, startNs, endNs int64)

// Allocator is the interface shared by the three allocator models. A tid is
// the caller's simulated thread ID in [0, Threads); every tid must be used
// by at most one goroutine at a time, mirroring thread-local caches.
type Allocator interface {
	// Name identifies the model ("jemalloc", "tcmalloc", "mimalloc").
	Name() string
	// Threads is the number of simulated threads the allocator serves.
	Threads() int
	// Alloc returns an object of at least size bytes, charged to tid.
	Alloc(tid int, size int) *Object
	// Free returns o to the allocator on behalf of tid. o must be in the
	// allocated state; a double free panics.
	Free(tid int, o *Object)
	// FlushThreadCache returns tid's cached objects to the shared pools
	// with modeled cost, as when one thread exits and its cache is torn
	// down (jemalloc tcache_destroy, tcmalloc ThreadCache teardown). The
	// participant lifecycle calls it on Leave; the next occupant of the
	// slot starts with a cold cache and re-primes it through the ordinary
	// refill path.
	FlushThreadCache(tid int)
	// SetFreeObserver installs fn to observe every Free call that takes a
	// clock-stamped slow path, passing the stamps the allocator already
	// took; nil removes the observer. Install before the workload starts:
	// the hook is read without synchronization on the free path.
	SetFreeObserver(fn FreeObserver)
	// Stats returns an aggregated snapshot of allocator activity;
	// Stats().PeakBytes is the simulated analogue of the paper's "peak
	// memory usage (MiB)".
	Stats() Stats
	// LiveBytes returns bytes currently in the allocated state.
	LiveBytes() int64
}

// Config carries the knobs shared by the allocator models. The zero value is
// not usable; call DefaultConfig.
type Config struct {
	// Threads is the number of simulated threads.
	Threads int
	// Cost is the machine model.
	Cost CostModel
	// TCacheCap is the per-thread per-class cache capacity. jemalloc's
	// small-bin tcache default is on the order of a few hundred slots.
	TCacheCap int
	// FlushFraction is the fraction of the cache flushed on overflow;
	// jemalloc flushes approximately 3/4.
	FlushFraction float64
	// FillCount is how many objects a cache refill takes from the shared
	// pool at once.
	FillCount int
	// PageRunObjects is how many objects one fresh page run provides.
	PageRunObjects int
	// ArenasPerThread is jemalloc's arena multiplier (default 4, giving
	// 4*Threads arenas).
	ArenasPerThread int
}

// DefaultConfig returns the configuration used throughout the paper
// reproduction: jemalloc-like thresholds on the Intel192 cost model.
func DefaultConfig(threads int) Config {
	return Config{
		Threads:         threads,
		Cost:            Intel192(),
		TCacheCap:       100,
		FlushFraction:   0.75,
		FillCount:       64,
		PageRunObjects:  64,
		ArenasPerThread: 4,
	}
}

// Validate reports the first knob out of range. A zero ArenasPerThread is
// not an error: the constructors take DefaultConfig's.
func (c Config) Validate() error {
	switch {
	case c.Threads <= 0:
		return fmt.Errorf("simalloc: Config.Threads must be positive (got %d)", c.Threads)
	case c.TCacheCap <= 0 || c.FillCount <= 0 || c.PageRunObjects <= 0:
		return fmt.Errorf("simalloc: cache sizing knobs must be positive (TCacheCap %d, FillCount %d, PageRunObjects %d)",
			c.TCacheCap, c.FillCount, c.PageRunObjects)
	case !(c.FlushFraction > 0 && c.FlushFraction <= 1):
		return fmt.Errorf("simalloc: FlushFraction %v out of (0,1]", c.FlushFraction)
	case c.ArenasPerThread < 0:
		return fmt.Errorf("simalloc: ArenasPerThread %d is negative", c.ArenasPerThread)
	}
	return nil
}

// models is the one list of allocator models, in the order the paper
// introduces them; New and AllocatorNames both read it.
var models = []struct {
	name string
	new  func(Config) Allocator
}{
	{"jemalloc", func(cfg Config) Allocator { return NewJEMalloc(cfg) }},
	{"tcmalloc", func(cfg Config) Allocator { return NewTCMalloc(cfg) }},
	{"mimalloc", func(cfg Config) Allocator { return NewMIMalloc(cfg) }},
}

// New constructs an allocator model by name, one of AllocatorNames. An
// unknown name or a configuration Validate rejects is an error.
func New(name string, cfg Config) (Allocator, error) {
	for _, m := range models {
		if m.name == name {
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return m.new(cfg), nil
		}
	}
	return nil, fmt.Errorf("simalloc: unknown allocator %q", name)
}

// AllocatorNames lists the available models in the order the paper
// introduces them.
func AllocatorNames() []string {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.name
	}
	return names
}

// model is what every allocator model holds: its configuration, its
// statistics, its object-ID counter and the free-path observer.
type model struct {
	cfg     Config
	stats   *statsArena
	nextID  atomic.Uint64
	freeObs FreeObserver
}

// init validates cfg, panicking on a bad one (New returns the error
// instead), and fills a zero ArenasPerThread from DefaultConfig.
func (m *model) init(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.ArenasPerThread == 0 {
		cfg.ArenasPerThread = DefaultConfig(cfg.Threads).ArenasPerThread
	}
	m.cfg = cfg
	m.stats = newStatsArena(cfg.Threads)
}

// Threads returns the number of simulated threads.
func (m *model) Threads() int { return m.cfg.Threads }

// SetFreeObserver installs fn on the Free slow path.
func (m *model) SetFreeObserver(fn FreeObserver) { m.freeObs = fn }

// SwapCost implements CostSwapper; every model keeps the table in force in
// its Config.
func (m *model) SwapCost(cm CostModel) CostModel {
	old := m.cfg.Cost
	if cm.ThreadsPerSocket != old.ThreadsPerSocket || cm.Sockets != old.Sockets {
		panic("simalloc: SwapCost must keep the topology the allocator was built with")
	}
	m.cfg.Cost = cm
	return old
}

// Stats returns an aggregated snapshot.
func (m *model) Stats() Stats { return m.stats.snapshot() }

// LiveBytes sums the per-thread byte deltas to the bytes currently held by
// the application.
func (m *model) LiveBytes() int64 {
	var live int64
	for i := range m.stats.perThread {
		t := &m.stats.perThread[i]
		live += atomic.LoadInt64(&t.allocBytes) - atomic.LoadInt64(&t.freeBytes)
	}
	return live
}
