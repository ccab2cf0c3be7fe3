package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/ds"
	"repro/internal/simalloc"
	"repro/internal/smr"
	"repro/internal/timeline"
)

// The traced run measures the layers from outside. bench.RunTrial cannot be
// interposed on, so the benchmark assembles the same stack from the layers'
// exported constructors, with a wrapper at every boundary, and drives it
// with a copy of the harness's closed-loop worker loop. Each wrapper records
// one span per call — kind, start, end, parent — into the calling simulated
// thread's buffer; the buffers are reduced after the repeat ends.

type spanKind uint8

const (
	kInsert spanKind = iota // ds.Set calls, stamped by the driver
	kDelete
	kContains
	kBeginOp // smr.Reclaimer calls
	kEndOp
	kOnAlloc
	kProtect
	kRetire
	kAlloc // simalloc.Allocator calls
	kFree
	kObserveFree // timeline: the recorder's free observer and batch-edge merge
	kMerge
	kYield // the driver's own scheduler yield
	numKinds
)

type layer uint8

const (
	layerDS layer = iota
	layerSMR
	layerAlloc
	layerTimeline
	layerDriver
	numLayers
)

var kindLayer = [numKinds]layer{
	kInsert: layerDS, kDelete: layerDS, kContains: layerDS,
	kBeginOp: layerSMR, kEndOp: layerSMR, kOnAlloc: layerSMR, kProtect: layerSMR, kRetire: layerSMR,
	kAlloc: layerAlloc, kFree: layerAlloc,
	kObserveFree: layerTimeline, kMerge: layerTimeline,
	kYield: layerDriver,
}

// span is one call across a layer boundary. parent indexes the enclosing
// span in the same thread's buffer, -1 for a call made by the driver.
type span struct {
	start, end int64
	parent     int32
	kind       spanKind
}

// threadTrace is one simulated thread's span buffer. Only the goroutine
// driving that tid touches it; the padding keeps neighbours apart.
type threadTrace struct {
	spans []span
	open  int32 // innermost span still open, -1 for none
	on    bool  // off during prefill and teardown
	// loopStart and loopEnd bracket the thread's measured worker loop.
	loopStart, loopEnd int64
	_                  [64]byte
}

func (t *threadTrace) begin(k spanKind) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: t.open, kind: k})
	t.open = i
	t.spans[i].start = clock.Now()
	return i
}

func (t *threadTrace) finish(i int32) {
	s := &t.spans[i]
	s.end = clock.Now()
	t.open = s.parent
}

type tracer struct{ threads []threadTrace }

func newTracer(threads, spansPerThread int) *tracer {
	tr := &tracer{threads: make([]threadTrace, threads)}
	for i := range tr.threads {
		tr.threads[i].spans = make([]span, 0, spansPerThread)
		tr.threads[i].open = -1
	}
	return tr
}

func (tr *tracer) reset() {
	for i := range tr.threads {
		tr.threads[i].spans = tr.threads[i].spans[:0]
		tr.threads[i].open = -1
	}
}

// tracedAllocator implements simalloc.Allocator around the real model.
type tracedAllocator struct {
	simalloc.Allocator
	tr *tracer
}

func (a *tracedAllocator) Alloc(tid, size int) *simalloc.Object {
	t := &a.tr.threads[tid]
	if !t.on {
		return a.Allocator.Alloc(tid, size)
	}
	i := t.begin(kAlloc)
	o := a.Allocator.Alloc(tid, size)
	t.finish(i)
	return o
}

func (a *tracedAllocator) Free(tid int, o *simalloc.Object) {
	t := &a.tr.threads[tid]
	if !t.on {
		a.Allocator.Free(tid, o)
		return
	}
	i := t.begin(kFree)
	a.Allocator.Free(tid, o)
	t.finish(i)
}

// SetFreeObserver wraps the observer too, so the recorder's share of a free
// call is a span of its own.
func (a *tracedAllocator) SetFreeObserver(fn simalloc.FreeObserver) {
	if fn == nil {
		a.Allocator.SetFreeObserver(nil)
		return
	}
	a.Allocator.SetFreeObserver(func(tid int, startNs, endNs int64) {
		t := &a.tr.threads[tid]
		if !t.on {
			fn(tid, startNs, endNs)
			return
		}
		i := t.begin(kObserveFree)
		fn(tid, startNs, endNs)
		t.finish(i)
	})
}

// guardSource is the method the trees look for to take the zero-dispatch
// protection path; every registered reclaimer has it.
type guardSource interface{ Guard(tid int) *smr.Guard }

// tracedReclaimer implements smr.Reclaimer around the real scheme. It
// forwards Guard, so the trees keep publishing per-node protection through
// the concrete guard exactly as they do untraced; those publications are
// therefore part of the tree's self time, and smr.guard_protect_ns is
// measured by an isolated loop.
type tracedReclaimer struct {
	smr.Reclaimer
	guards guardSource
	tr     *tracer
}

func (r *tracedReclaimer) Guard(tid int) *smr.Guard { return r.guards.Guard(tid) }

func (r *tracedReclaimer) BeginOp(tid int) {
	t := &r.tr.threads[tid]
	if !t.on {
		r.Reclaimer.BeginOp(tid)
		return
	}
	i := t.begin(kBeginOp)
	r.Reclaimer.BeginOp(tid)
	t.finish(i)
}

func (r *tracedReclaimer) EndOp(tid int) {
	t := &r.tr.threads[tid]
	if !t.on {
		r.Reclaimer.EndOp(tid)
		return
	}
	i := t.begin(kEndOp)
	r.Reclaimer.EndOp(tid)
	t.finish(i)
}

func (r *tracedReclaimer) OnAlloc(tid int, o *simalloc.Object) {
	t := &r.tr.threads[tid]
	if !t.on {
		r.Reclaimer.OnAlloc(tid, o)
		return
	}
	i := t.begin(kOnAlloc)
	r.Reclaimer.OnAlloc(tid, o)
	t.finish(i)
}

func (r *tracedReclaimer) Protect(tid, slot int, o *simalloc.Object) {
	t := &r.tr.threads[tid]
	if !t.on {
		r.Reclaimer.Protect(tid, slot, o)
		return
	}
	i := t.begin(kProtect)
	r.Reclaimer.Protect(tid, slot, o)
	t.finish(i)
}

func (r *tracedReclaimer) Retire(tid int, o *simalloc.Object) {
	t := &r.tr.threads[tid]
	if !t.on {
		r.Reclaimer.Retire(tid, o)
		return
	}
	i := t.begin(kRetire)
	r.Reclaimer.Retire(tid, o)
	t.finish(i)
}

// stack is what the driver drives: either bench.NewStack's own assembly
// (tr == nil) or the same assembly with a wrapper at every boundary.
type stack struct {
	alloc    simalloc.Allocator
	rec      smr.Reclaimer
	set      ds.Set
	recorder *timeline.Recorder
	close    func()
}

// assemble mirrors bench.NewStack for the knobs the benchmark's workloads
// set: allocator defaults, BatchSize/DrainRate/TokenCheckK, optional
// recording. The fingerprint-parity test holds it to the harness.
func assemble(cfg bench.WorkloadConfig, tr *tracer) (*stack, error) {
	if tr == nil {
		st, err := bench.NewStack(cfg)
		if err != nil {
			return nil, err
		}
		return &stack{alloc: st.Alloc, rec: st.Reclaimer, set: st.Set, recorder: st.Recorder, close: st.Close}, nil
	}
	acfg := simalloc.DefaultConfig(cfg.Threads)
	if cfg.Cost.ThreadsPerSocket != 0 {
		acfg.Cost = cfg.Cost
	}
	inner, err := simalloc.New(cfg.Allocator, acfg)
	if err != nil {
		return nil, err
	}
	st := &stack{alloc: &tracedAllocator{Allocator: inner, tr: tr}}
	if cfg.Record {
		st.recorder = timeline.NewRecorder(cfg.Threads, cfg.RecorderCap)
		st.alloc.SetFreeObserver(st.recorder.ObserveFree)
	}
	var stopped atomic.Bool
	rcfg := smr.DefaultConfig(st.alloc, cfg.Threads)
	rcfg.BatchSize, rcfg.DrainRate, rcfg.TokenCheckK = cfg.BatchSize, cfg.DrainRate, cfg.TokenCheckK
	rcfg.Recorder = st.recorder
	rcfg.Stopped = stopped.Load
	scheme, err := smr.New(cfg.Reclaimer, rcfg)
	if err != nil {
		return nil, err
	}
	guards, ok := scheme.(guardSource)
	if !ok {
		return nil, fmt.Errorf("reclaimer %s has no Guard method; the traced stack would change its dispatch path", cfg.Reclaimer)
	}
	st.rec = &tracedReclaimer{Reclaimer: scheme, guards: guards, tr: tr}
	if st.set, err = ds.New(cfg.DataStructure, st.alloc, st.rec); err != nil {
		return nil, err
	}
	st.close = func() {
		stopped.Store(true)
		for tid := 0; tid < cfg.Threads; tid++ {
			st.rec.Drain(tid)
		}
		st.recorder.MergeAll()
	}
	return st, nil
}

// xorshift is the harness's per-thread generator (bench's rng), copied
// because prefill must draw the same keys for the fingerprints to agree.
type xorshift uint64

func (r *xorshift) intn(n int64) int64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = xorshift(x)
	return int64((x >> 17) % uint64(n))
}

// opBatch is the harness's stream batch: keys and kinds are drawn, the
// recorder merged and the yield policy applied once per 64 ops.
const opBatch = 64

// driven is what one driven window yields: the harness's own snapshot
// fields plus what only an outside driver can see.
type driven struct {
	ops, updates, updatesOK  int64
	size                     int64
	wall                     time.Duration
	build, prefill, teardown time.Duration
	alloc                    simalloc.Stats
	smr                      smr.Stats
}

// drive runs cfg (closed loop, FixedOps per thread) on an assembled stack:
// prefill to half the key range, run the scenario's per-thread streams,
// snapshot, drain. With tr == nil it is an untraced copy of bench.RunTrial
// that also reports the final set size.
func drive(cfg bench.WorkloadConfig, tr *tracer) (driven, error) {
	var d driven
	t0 := time.Now()
	st, err := assemble(cfg, tr)
	if err != nil {
		return d, err
	}
	d.build = time.Since(t0)
	wl, err := bench.NewScenario(cfg.Scenario)
	if err != nil {
		return d, err
	}

	t0 = time.Now()
	var wg sync.WaitGroup
	for tid := 0; tid < cfg.Threads; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := xorshift(cfg.Seed + uint64(tid)*0x517cc1b727220a95 + 11)
			if r == 0 {
				r = 0x9e3779b97f4a7c15
			}
			for st.set.Size() < cfg.KeyRange/2 {
				for i := 0; i < opBatch; i++ {
					st.set.Insert(tid, r.intn(cfg.KeyRange))
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	d.prefill = time.Since(t0)

	keys := make([]bench.KeyDist, cfg.Threads)
	mixes := make([]bench.OpMix, cfg.Threads)
	for tid := range keys {
		keys[tid] = wl.KeyDist(&cfg, tid)
		mixes[tid] = wl.OpMix(&cfg, tid)
	}
	// The harness's auto yield policy: every batch when oversubscribed,
	// every fourth otherwise.
	stride := 4 * opBatch
	if cfg.Threads > runtime.GOMAXPROCS(0) {
		stride = opBatch
	}
	counts := make([]struct {
		updates, ok int64
		_           [48]byte
	}, cfg.Threads)
	start := time.Now()
	for tid := 0; tid < cfg.Threads; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t *threadTrace
			if tr != nil {
				t = &tr.threads[tid]
				t.on = true
				t.loopStart = clock.Now()
			}
			counts[tid].updates, counts[tid].ok = work(cfg.FixedOps, stride, tid, st, keys[tid], mixes[tid], t)
			if t != nil {
				t.loopEnd = clock.Now()
				t.on = false
			}
		}()
	}
	wg.Wait()
	d.wall = time.Since(start)

	d.ops = int64(cfg.FixedOps) * int64(cfg.Threads)
	for i := range counts {
		d.updates += counts[i].updates
		d.updatesOK += counts[i].ok
	}
	d.alloc = st.alloc.Stats()
	d.smr = st.rec.Stats()
	d.size = st.set.Size()

	t0 = time.Now()
	st.close()
	d.teardown = time.Since(t0)
	return d, nil
}

// work is one simulated thread's closed loop, the fixed-ops path of the
// harness's runWorker. t is nil untraced.
func work(fixedOps, stride, tid int, st *stack, kd bench.KeyDist, om bench.OpMix, t *threadTrace) (updates, ok int64) {
	var (
		keyBuf  [opBatch]int64
		kindBuf [opBatch]bench.Op
	)
	sinceYield := 0
	for done := 0; done < fixedOps; {
		n := min(opBatch, fixedOps-done)
		for i := 0; i < n; i++ {
			keyBuf[i] = kd.Next()
		}
		for i := 0; i < n; i++ {
			kindBuf[i] = om.Next()
		}
		for i := 0; i < n; i++ {
			var sp int32
			var hit bool
			switch key := keyBuf[i]; kindBuf[i] {
			case bench.OpInsert:
				if t != nil {
					sp = t.begin(kInsert)
				}
				hit = st.set.Insert(tid, key)
				updates++
			case bench.OpDelete:
				if t != nil {
					sp = t.begin(kDelete)
				}
				hit = st.set.Delete(tid, key)
				updates++
			default:
				if t != nil {
					sp = t.begin(kContains)
				}
				st.set.Contains(tid, key)
			}
			if t != nil {
				t.finish(sp)
			}
			if hit {
				ok++
			}
		}
		done += n
		if t != nil && st.recorder != nil {
			sp := t.begin(kMerge)
			st.recorder.Merge(tid)
			t.finish(sp)
		} else {
			st.recorder.Merge(tid)
		}
		if sinceYield += n; sinceYield >= stride {
			sinceYield = 0
			if t != nil {
				sp := t.begin(kYield)
				runtime.Gosched()
				t.finish(sp)
			} else {
				runtime.Gosched()
			}
		}
	}
	return updates, ok
}

// reduced is one traced repeat's spans folded into sums and distributions.
// Self times are corrected for the tracer's own clock reads: a span's two
// stamps put about one read inside its own interval and one inside its
// parent's, so each span gives up one read cost plus one per child.
type reduced struct {
	threadNs float64            // Σ over threads of worker-loop time
	selfNs   [numLayers]float64 // corrected self time by layer, of the spans inside Set calls
	count    [numKinds]int64
	kindSelf [numKinds]float64 // corrected self time by call kind
	opDur    [3][]int64        // insert, delete, contains durations
	freeDur  []int64
	bursts   []int64 // Free calls nested in one reclaimer call, where any
}

// driverNs is the thread time that is no layer's self time inside a Set
// call: stream refill, yields and the wait to run again, recorder merges, and
// what the clock-read correction took out of the spans.
func (r *reduced) driverNs() float64 {
	d := r.threadNs
	for _, self := range r.selfNs {
		d -= self
	}
	return d
}

func (tr *tracer) reduce() reduced {
	var r reduced
	readCost := clock.ReadCostNs()
	var childDur []int64
	var kids, freeKids []int32
	for ti := range tr.threads {
		t := &tr.threads[ti]
		n := len(t.spans)
		childDur = zeroed(childDur, n)
		kids = zeroed(kids, n)
		freeKids = zeroed(freeKids, n)
		for _, s := range t.spans {
			if s.parent >= 0 {
				childDur[s.parent] += s.end - s.start
				kids[s.parent]++
				if s.kind == kFree {
					freeKids[s.parent]++
				}
			}
		}
		r.threadNs += float64(t.loopEnd - t.loopStart)
		for i, s := range t.spans {
			dur := s.end - s.start
			self := max(float64(dur-childDur[i])-readCost*float64(1+kids[i]), 0)
			r.count[s.kind]++
			r.kindSelf[s.kind] += self
			l := kindLayer[s.kind]
			switch {
			case l == layerDS:
				r.opDur[s.kind] = append(r.opDur[s.kind], dur)
			case s.kind == kFree:
				r.freeDur = append(r.freeDur, dur)
			case l == layerSMR && freeKids[i] > 0:
				r.bursts = append(r.bursts, int64(freeKids[i]))
			}
			// Merge and yield are the driver's own calls, outside any op;
			// everything else nests inside one.
			if s.kind != kMerge && s.kind != kYield {
				r.selfNs[l] += self
			}
		}
	}
	return r
}

// zeroed returns buf resized to n zero elements, reusing its storage.
func zeroed[T int32 | int64](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// sorted sorts vals in place and returns it, for percentile.
func sorted(vals []int64) []int64 {
	slices.Sort(vals)
	return vals
}

// percentile returns the p-quantile (nearest rank) of sorted vals; 0 when
// empty.
func percentile(vals []int64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	i := int(p * float64(len(vals)))
	return float64(vals[min(i, len(vals)-1)])
}

func perCall(total float64, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return total / float64(calls)
}
