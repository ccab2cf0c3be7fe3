package smr

import "repro/internal/simalloc"

// core is what every reclaimer embeds: the shared env, the freeing policy
// (freer.go) and the registry name. It implements all of Reclaimer and
// Diagnosable that does not depend on how a grace period is detected, so a
// scheme file holds only its announcement state, its BeginOp / EndOp /
// Retire, its grace-period test and its adoption point — and overrides a
// default below only where its rule differs (HP clears its window in EndOp,
// DEBRA primes an announcement in Join).
type core struct {
	e    env
	name string
	f    freer
}

func newCore(name string, cfg Config, af bool) core {
	cfg.fillDefaults()
	var f freer
	if af {
		f = freer{rate: cfg.DrainRate, queues: make([]afQueue, cfg.Threads)}
	}
	return core{e: newEnv(cfg), name: name, f: f}
}

// Name returns the registry name the reclaimer was constructed under.
func (c *core) Name() string { return c.name }

// BeginOp is a no-op for schemes that do all their work elsewhere.
func (c *core) BeginOp(int) {}

// EndOp pumps the freer (DrainRate queued frees per op under AF).
func (c *core) EndOp(tid int) { c.pump(tid) }

// OnAlloc is a no-op except for the era schemes, which stamp a birth era.
func (c *core) OnAlloc(int, *simalloc.Object) {}

// Protect is a no-op for schemes whose protection is per operation.
func (c *core) Protect(int, int, *simalloc.Object) {}

// Guard returns nil for those schemes, so the trees branch away from the
// protect path entirely.
func (c *core) Guard(int) *Guard { return nil }

// Join occupies a vacated slot. A scheme whose vacated slots are already
// quiescent (cleared hazards, an even counter) needs nothing re-primed.
func (c *core) Join() (int, error) { return c.e.reg.join() }

// Stats returns an aggregated snapshot.
func (c *core) Stats() Stats { return c.e.stats() }

// Diagnose implements Diagnosable.
func (c *core) Diagnose() Diag { return c.e.diag(c.name) }

// adopt appends every pending orphan batch to list — a scheme's adoption
// point is wherever it calls this, and the comment there says why that
// point is safe.
func (c *core) adopt(list []*simalloc.Object) []*simalloc.Object {
	if c.e.reg.hasOrphans() {
		return c.e.reg.adoptInto(list)
	}
	return list
}

// depart is the body of every Leave, called once the scheme has cleared
// tid's announcements so no grace period waits on the slot: tid's limbo
// lists and any queued freeable objects go to the orphan queue — never
// straight to the allocator, since operations in flight on other threads
// may still hold references — and the slot is vacated.
func (c *core) depart(tid int, lists ...*[]*simalloc.Object) {
	for _, l := range lists {
		c.e.reg.orphan(*l)
		*l = nil
	}
	c.orphanQueued(tid)
	c.e.leave(tid)
}

// drain is the body of every Drain: pending orphans are adopted into
// lists[adoptInto], then every list, in order, and the freeable queue are
// released without waiting for a grace period (all threads have stopped).
func (c *core) drain(tid int, adoptInto int, lists ...*[]*simalloc.Object) {
	*lists[adoptInto] = c.adopt(*lists[adoptInto])
	for _, l := range lists {
		c.freeBatch(tid, *l)
		*l = (*l)[:0]
	}
	c.drainQueued(tid)
}

// scanList is the per-thread state of a scan scheme (HP, HE/WFE, IBR): the
// retire list and the scan's output batch, reused across scans so the
// steady state allocates nothing.
type scanList struct {
	retired  []*simalloc.Object
	freeable []*simalloc.Object
}

// sweep partitions l.retired by the scheme's grace-period test — held
// reports whether some thread's announcement still covers o — keeps the
// held objects for the next scan and hands the rest to the freer as one
// batch. Scan rounds count as "epochs" for reporting.
func (c *core) sweep(tid int, l *scanList, held func(*simalloc.Object) bool) {
	keep := l.retired[:0]
	freeable := l.freeable[:0]
	for _, o := range l.retired {
		if held(o) {
			keep = append(keep, o)
		} else {
			freeable = append(freeable, o)
		}
	}
	l.retired = keep
	c.e.epochs.Add(1)
	c.freeBatch(tid, freeable)
	clear(freeable) // freed objects must not stay reachable from the scratch
	l.freeable = freeable[:0]
	c.e.sampleGarbage(tid)
}

// eraClock is the global era of the interval schemes (HE/WFE, IBR): objects
// are stamped with the era at allocation and at retirement, and the era
// advances every freq retires.
type eraClock struct {
	freq    int64
	era     pad64
	retireN pad64 // global retire counter driving the era
}

func (k *eraClock) init(freq int) {
	k.freq = int64(freq)
	k.era.v.Store(1)
}

func (k *eraClock) stampBirth(o *simalloc.Object) { o.BirthEra = uint64(k.era.v.Load()) }

func (k *eraClock) stampRetire(o *simalloc.Object) {
	o.RetireEra = uint64(k.era.v.Load())
	if k.retireN.v.Add(1)%k.freq == 0 {
		k.era.v.Add(1)
	}
}
