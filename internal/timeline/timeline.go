// Package timeline implements the paper's timeline-graph visualization: a
// low-overhead per-thread event recorder plus CSV export and an ASCII
// renderer. Rows are threads, the x-axis is time, boxes are high-latency
// events (batch frees or individual free calls), and epoch changes appear
// as dots projected onto a footer row.
//
// # Recording pipeline
//
// The recorder is two-stage. Producers append pre-stamped raw entries to a
// per-thread staging ring (ObserveFree, StageBatchFree, StageMark): one
// store through a mask plus a fill check, no filtering, no clamping, no
// capacity comparison. The rings are merged into the committed per-thread
// event buffers at batch edges — the worker loop's 64-op boundary, phase
// transitions, participant departure, and trial teardown all call Merge /
// MergeAll — and only the merge applies the per-event post-processing the
// hot path used to pay: the FreeCallThreshold filter, mark clamping, drop
// accounting, and origin rebasing. A ring that fills between batch edges
// merges itself, so staging never loses an entry.
//
// Free-call stamps are not taken by the recorder at all: the allocator
// models already stamp their Free slow paths (tcache flush, central spill,
// remote push) for their own statistics, and a free call can only exceed
// the threshold by hitting such a slow path, so the observer hook
// (ObserveFree) reuses those stamps and a recorded free costs zero extra
// clock reads. The only stamps recording adds are the two batch-envelope
// stamps around each batch free, counted exactly in ClockReads.
package timeline

import (
	"fmt"
	"io"
	"iter"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// EventKind classifies recorded events.
type EventKind uint8

const (
	// KindBatchFree is the time spent freeing one batch of limbo objects.
	KindBatchFree EventKind = iota
	// KindFreeCall is one individual allocator free call (recorded only
	// when it exceeds the recorder's latency threshold, as in Fig. 3/17).
	KindFreeCall
	// KindEpochAdvance marks a thread successfully advancing the global
	// epoch (the blue dots in the paper's graphs).
	KindEpochAdvance
	// KindGarbageSample carries Value = total unreclaimed garbage objects,
	// sampled at an epoch boundary.
	KindGarbageSample
)

// String names the kind for CSV output.
func (k EventKind) String() string {
	switch k {
	case KindBatchFree:
		return "batch_free"
	case KindFreeCall:
		return "free_call"
	case KindEpochAdvance:
		return "epoch_advance"
	case KindGarbageSample:
		return "garbage"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded interval. Start and End are nanoseconds since the
// recorder's origin; Value is kind-specific (objects freed in the batch,
// epoch number, or garbage count).
type Event struct {
	Start, End int64
	Kind       EventKind
	Value      int64
}

// Duration returns the event's length.
func (e Event) Duration() time.Duration { return time.Duration(e.End - e.Start) }

// Entry is one raw staged record: absolute clock.Now stamps, unfiltered,
// unclamped, not yet rebased to the origin. Mark-kind entries (epoch
// advance, garbage sample) carry their coarse stamp in Start and leave End
// zero; the merge clamps and mirrors it.
type Entry struct {
	Start, End int64
	Value      int64
	Kind       EventKind
}

// stageSize is each staging ring's capacity. It must be a power of two
// (put indexes through stageMask) and comfortably exceed the event rate of
// one worker batch; a ring that fills early self-merges, so the size bounds
// merge latency, not fidelity.
const (
	stageSize = 1024
	stageMask = stageSize - 1
)

// stage is one thread's staging ring. The owning thread is the only writer;
// merge runs on the owner or, at phase boundaries and teardown, on a
// coordinator that synchronized with it (the same happens-before contract
// as threadBuf).
type stage struct {
	buf []Entry
	// n is the fill level; merge resets it to zero.
	n int
	// reads counts extra host clock reads charged to recording on this
	// thread: the two batch-envelope stamps per StageBatchFree. Observer
	// entries and marks charge none.
	reads int64
	// muted drops ObserveFree entries. Teardown paths (smr drainQueued, departing
	// threads' cache flushes) free through the allocator but never produced
	// timeline events, so their observer callbacks are silenced.
	muted bool
	_     [2]int64 // one 64-byte line, so adjacent threads' rings share none
}

// chunkSize is the event capacity of a committed chunk. A full chunk is never
// copied: the next event opens a new one.
const chunkSize = 1024

// threadBuf is one thread's committed events: the full chunks in commit
// order, then the tail chunk being filled. Every chunk in full holds
// chunkSize events, so the thread holds len(full)*chunkSize + len(tail) and
// allocates each event once. The fields fill exactly one 64-byte line, so
// adjacent threads' headers share none.
type threadBuf struct {
	full [][]Event
	// tail is never empty once the thread has committed an event.
	tail []Event
	// dropped counts recordable events discarded because the committed
	// buffer was full. Atomic so Dropped may be read while other threads
	// are still merging; the increment sits on the cold buffer-full path.
	dropped atomic.Int64
	_       int64
}

// count returns the number of committed events across full and tail.
func (b *threadBuf) count() int { return len(b.full)*chunkSize + len(b.tail) }

// commit appends one rebased event, or counts it dropped once the thread
// holds capEach events. Merge and Record both commit through it. Only a full
// tail reaches grow, and no tail is given more free slots than capEach
// leaves, so the append never reallocates a chunk.
func (b *threadBuf) commit(e Event, capEach int) {
	if len(b.tail) == cap(b.tail) && !b.grow(capEach) {
		return
	}
	b.tail = append(b.tail, e)
}

// grow opens a new tail of chunkSize events, or of what capEach leaves if
// that is less, behind a full one; it counts the event dropped and reports
// false once the thread holds capEach events. A tail capped below chunkSize
// is therefore the thread's last chunk and never joins full.
func (b *threadBuf) grow(capEach int) bool {
	room := capEach - b.count()
	if room <= 0 {
		b.dropped.Add(1)
		return false
	}
	if b.tail != nil {
		b.full = append(b.full, b.tail)
	}
	b.tail = make([]Event, 0, min(chunkSize, room))
	return true
}

// clampMark bounds a mark's stamp: never before the origin, never before the
// start of the thread's last committed event, which is the tail's last even
// when the tail has just filled a chunk.
func (b *threadBuf) clampMark(stampNs, origin int64) int64 {
	now := max(stampNs, origin)
	if k := len(b.tail); k > 0 {
		now = max(now, b.tail[k-1].Start+origin)
	}
	return now
}

// Recorder collects events into per-thread lists of fixed-size chunks, up to
// a fixed logical capacity per thread. Each chunk is allocated once at
// chunkSize (1024) events, or at what the capacity leaves if that is less,
// and never copied, so a trial allocates about what it keeps (pinned by
// TestRecorderAllocatesWhatItKeeps). Chunks are allocated only at merge
// edges, never on the staging path, and constructing a recorder costs no
// large zeroed allocation.
// Each thread ID must be used by one goroutine at a time. The staged path (ObserveFree,
// StageBatchFree, StageMark) is the production pipeline: wait-free, no
// branching beyond a mask and a fill check, post-processed only at Merge.
// The reference commit path (Record, MarkAt, ReplayEntry) applies the same
// per-event logic one event at a time and commits immediately; parity tests
// tee the live stream into it, nothing else calls it. Do not mix the two on
// the same tid within a trial, or per-thread event order is unspecified.
// Stamps are int64 nanoseconds from package clock, so recording does no
// time.Time arithmetic on the hot path.
type Recorder struct {
	origin    int64
	perThread []threadBuf
	stages    []stage
	capEach   int
	// tee, when non-nil, observes every raw staged entry before it enters
	// the ring. Parity harnesses replay the stream through a same-origin
	// reference recorder; nil in production.
	tee func(tid int, e Entry)
	// FreeCallThreshold filters KindFreeCall events below this duration;
	// the paper's free-call timelines show calls longer than 0.1 ms.
	FreeCallThreshold time.Duration
}

// NewRecorder creates a recorder for the given number of threads with a
// fixed logical per-thread event capacity (chunks are allocated as events
// are committed, never beyond it).
// A nil *Recorder is valid everywhere and records nothing.
func NewRecorder(threads, capPerThread int) *Recorder {
	clock.EnsureCoarse() // mark stamps use the coarse clock
	return NewRecorderAt(clock.Now(), threads, capPerThread)
}

// NewRecorderAt is NewRecorder with an explicit origin stamp. Parity
// harnesses use it to build a reference recorder sharing a live recorder's
// time base, so rebased stamps compare bit-for-bit.
func NewRecorderAt(origin int64, threads, capPerThread int) *Recorder {
	clock.EnsureCoarse()
	r := &Recorder{
		origin:            origin,
		perThread:         make([]threadBuf, threads),
		stages:            make([]stage, threads),
		capEach:           capPerThread,
		FreeCallThreshold: 100 * time.Microsecond,
	}
	for i := range r.stages {
		r.stages[i].buf = make([]Entry, stageSize)
	}
	return r
}

// Origin returns the recorder's time origin as a clock.Now value.
func (r *Recorder) Origin() int64 { return r.origin }

// SetRawTee installs fn to observe every raw staged entry, in per-thread
// staging order, before filtering or clamping. fn runs on the staging
// thread; entries for different tids may arrive concurrently. Install
// before producers start. Test instrumentation — see Entry.
func (r *Recorder) SetRawTee(fn func(tid int, e Entry)) {
	if r != nil {
		r.tee = fn
	}
}

// put appends one raw entry to tid's staging ring: a masked store plus a
// fill check. A full ring merges itself so no entry is ever lost at the
// staging layer; Dropped accounting happens only at commit, against the
// committed buffer's capacity.
func (r *Recorder) put(tid int, s *stage, e Entry) {
	if r.tee != nil {
		r.tee(tid, e)
	}
	s.buf[s.n&stageMask] = e
	s.n++
	if s.n == stageSize {
		r.Merge(tid)
	}
}

// ObserveFree stages one allocator free call from the allocator's own
// slow-path stamps (see simalloc.FreeObserver). It takes no clock reads of
// its own: the stamps were already paid for by the allocator's statistics.
// Muted threads (teardown paths) stage nothing.
func (r *Recorder) ObserveFree(tid int, startNs, endNs int64) {
	if r == nil {
		return
	}
	s := &r.stages[tid]
	if s.muted {
		return
	}
	r.put(tid, s, Entry{Start: startNs, End: endNs, Value: 1, Kind: KindFreeCall})
}

// StageBatchFree stages one batch-free envelope. The caller took the two
// stamps (batch begin and end); they are the only clock reads recording
// adds over an unrecorded trial, and are counted here so ClockReads is
// exact.
func (r *Recorder) StageBatchFree(tid int, startNs, endNs, n int64) {
	if r == nil {
		return
	}
	s := &r.stages[tid]
	s.reads += 2
	r.put(tid, s, Entry{Start: startNs, End: endNs, Value: n, Kind: KindBatchFree})
}

// StageMark stages an instantaneous event (epoch advance, garbage sample)
// with a coarse-clock stamp: these stamps only position dots on ms-scale
// plots, so ~clock.CoarseResolution of staleness is invisible and the stamp
// costs no clock read. Clamping (never before the origin, never before the
// thread's previously committed event) is applied at merge time, exactly as
// MarkAt applies it at record time.
func (r *Recorder) StageMark(tid int, kind EventKind, value int64) {
	if r == nil {
		return
	}
	s := &r.stages[tid]
	r.put(tid, s, Entry{Start: clock.Coarse(), Value: value, Kind: kind})
}

// MuteFrees silences ObserveFree for tid until UnmuteFrees. Teardown paths
// that free through the allocator without producing timeline events (drain,
// departing threads' cache flushes) bracket themselves with it.
func (r *Recorder) MuteFrees(tid int) {
	if r != nil {
		r.stages[tid].muted = true
	}
}

// UnmuteFrees re-enables ObserveFree for tid.
func (r *Recorder) UnmuteFrees(tid int) {
	if r != nil {
		r.stages[tid].muted = false
	}
}

// Merge drains tid's staging ring into its committed buffer, applying the
// deferred per-event logic in staging order: the FreeCallThreshold filter
// (sub-threshold calls vanish, uncounted), mark clamping, the capacity
// check (recordable events past capEach count as Dropped), and origin
// rebasing. Call it from the staging thread, or from a coordinator that
// synchronized with it.
func (r *Recorder) Merge(tid int) {
	if r == nil {
		return
	}
	s := &r.stages[tid]
	if s.n == 0 {
		return
	}
	buf := &r.perThread[tid]
	thr := int64(r.FreeCallThreshold)
	for i := 0; i < s.n; i++ {
		e := s.buf[i]
		switch e.Kind {
		case KindFreeCall:
			if e.End-e.Start < thr {
				continue // filtered, not truncation
			}
		case KindEpochAdvance, KindGarbageSample:
			// MarkAt's clamp: a coarse stamp may lag the origin or the
			// thread's previous event; bound the displacement.
			now := buf.clampMark(e.Start, r.origin)
			e.Start, e.End = now, now
		}
		buf.commit(Event{
			Start: e.Start - r.origin,
			End:   e.End - r.origin,
			Kind:  e.Kind,
			Value: e.Value,
		}, r.capEach)
	}
	s.n = 0
}

// MergeAll merges every thread's staging ring. Only call it when no thread
// is staging (trial stopped, snapshot, teardown).
func (r *Recorder) MergeAll() {
	if r == nil {
		return
	}
	for tid := range r.stages {
		r.Merge(tid)
	}
}

// ReplayEntry commits one raw staged entry through the reference path: marks
// take MarkAt's clamp, everything else goes to Record. Parity harnesses tee a
// live recorder's raw stream into a same-origin reference recorder with it
// and compare output.
func (r *Recorder) ReplayEntry(tid int, e Entry) {
	switch e.Kind {
	case KindEpochAdvance, KindGarbageSample:
		r.MarkAt(tid, e.Kind, e.Start, e.Value)
	default:
		r.Record(tid, e.Kind, e.Start, e.End, e.Value)
	}
}

// ClockReads reports how many extra host clock reads recording has taken
// beyond what an unrecorded trial performs: two per staged batch-free
// envelope. Observer entries and marks are free. Read it after the trial
// quiesced (counters are unsynchronized per-thread fields).
func (r *Recorder) ClockReads() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.stages {
		n += r.stages[i].reads
	}
	return n
}

// Record stores one event for tid. Start and end are clock.Now values.
// Recordable events past the per-thread capacity are dropped (and counted),
// keeping recording overhead bounded. This is the reference commit path; the
// production pipeline stages instead (see the package comment).
func (r *Recorder) Record(tid int, kind EventKind, startNs, endNs, value int64) {
	if r == nil {
		return
	}
	if kind == KindFreeCall && endNs-startNs < int64(r.FreeCallThreshold) {
		return
	}
	r.perThread[tid].commit(Event{
		Start: startNs - r.origin,
		End:   endNs - r.origin,
		Kind:  kind,
		Value: value,
	}, r.capEach)
}

// MarkAt commits an instantaneous event (epoch advance, garbage sample)
// whose coarse stamp the caller took. The stamp is clamped so a mark never
// starts before the origin or before the thread's most recently committed
// event's start, bounding how far coarse lag can displace a dot. Reference
// commit path, like Record.
func (r *Recorder) MarkAt(tid int, kind EventKind, stampNs, value int64) {
	if r == nil {
		return
	}
	now := r.perThread[tid].clampMark(stampNs, r.origin)
	r.Record(tid, kind, now, now, value)
}

// Dropped reports how many recordable events were discarded across all
// threads because a per-thread buffer reached its capacity. A non-zero
// count means the timeline is truncated, not that the trial went quiet;
// sub-threshold free calls are filtered by design and never counted here.
// Dropped merges pending staged entries first, so only call it (like every
// reader) when no thread is actively staging.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.MergeAll()
	var n int64
	for i := range r.perThread {
		n += r.perThread[i].dropped.Load()
	}
	return n
}

// Threads returns the number of thread rows.
func (r *Recorder) Threads() int {
	if r == nil {
		return 0
	}
	return len(r.perThread)
}

// Events returns tid's recorded events in commit order, merging the thread's
// staged entries first. The sequence reads the recorder's chunks in place;
// do not record concurrently with ranging over it.
func (r *Recorder) Events(tid int) iter.Seq[Event] {
	return func(yield func(Event) bool) {
		if r == nil {
			return
		}
		r.Merge(tid)
		b := &r.perThread[tid]
		for _, c := range b.full {
			for _, e := range c {
				if !yield(e) {
					return
				}
			}
		}
		for _, e := range b.tail {
			if !yield(e) {
				return
			}
		}
	}
}

// TotalEvents counts events across all threads (staged entries included).
func (r *Recorder) TotalEvents() int {
	if r == nil {
		return 0
	}
	r.MergeAll()
	n := 0
	for i := range r.perThread {
		n += r.perThread[i].count()
	}
	return n
}

// WriteCSV emits all events as "tid,kind,start_ns,end_ns,value" rows with a
// header, in per-thread recording order. Starts are not strictly sorted: a
// batch_free event is recorded retroactively at its begin time, after its
// constituent free_call events. When events were dropped at capacity, a
// "# dropped=N" comment line precedes the header so truncation is never
// silent.
func (r *Recorder) WriteCSV(w io.Writer) error {
	r.MergeAll()
	if d := r.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "# dropped=%d\n", d); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "tid,kind,start_ns,end_ns,value"); err != nil {
		return err
	}
	for tid := range r.perThread {
		for e := range r.Events(tid) {
			if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d\n", tid, e.Kind, e.Start, e.End, e.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderOptions controls ASCII rendering.
type RenderOptions struct {
	// Width is the number of time buckets (columns). Default 100.
	Width int
	// MaxRows caps the number of thread rows shown (the paper shows 20 of
	// 192 for clarity). 0 means all.
	MaxRows int
	// Kinds selects which interval kinds fill boxes; default KindBatchFree.
	Kinds []EventKind
}

// RenderASCII draws the timeline as text. Each row is a thread; a column is
// shaded when the thread spent a significant fraction of that time bucket
// inside a selected event ('X' ≥ 75%, 'x' ≥ 50%, '+' ≥ 25%, '.' > 0). The
// footer row projects epoch advances as '*', mirroring the paper's blue
// dots.
func RenderASCII(r *Recorder, opt RenderOptions) string {
	if r == nil || r.Threads() == 0 {
		return "(no timeline)\n"
	}
	r.MergeAll()
	if opt.Width <= 0 {
		opt.Width = 100
	}
	kinds := opt.Kinds
	if len(kinds) == 0 {
		kinds = []EventKind{KindBatchFree}
	}
	wanted := func(k EventKind) bool {
		for _, kk := range kinds {
			if kk == k {
				return true
			}
		}
		return false
	}

	var tmin, tmax int64 = 1<<62 - 1, 0
	for tid := 0; tid < r.Threads(); tid++ {
		for e := range r.Events(tid) {
			if e.Start < tmin {
				tmin = e.Start
			}
			if e.End > tmax {
				tmax = e.End
			}
		}
	}
	if tmax <= tmin {
		return "(no events)\n"
	}
	span := tmax - tmin
	bucket := span / int64(opt.Width)
	if bucket == 0 {
		bucket = 1
	}

	rows := r.Threads()
	if opt.MaxRows > 0 && rows > opt.MaxRows {
		rows = opt.MaxRows
	}

	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %v span, %d threads (showing %d), bucket=%v",
		time.Duration(span), r.Threads(), rows, time.Duration(bucket))
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&b, ", dropped=%d", d)
	}
	b.WriteByte('\n')
	shade := func(frac float64) byte {
		switch {
		case frac >= 0.75:
			return 'X'
		case frac >= 0.5:
			return 'x'
		case frac >= 0.25:
			return '+'
		case frac > 0:
			return '.'
		default:
			return ' '
		}
	}
	epochCols := make([]bool, opt.Width)
	for tid := 0; tid < rows; tid++ {
		fill := make([]int64, opt.Width)
		for e := range r.Events(tid) {
			if e.Kind == KindEpochAdvance {
				c := int((e.Start - tmin) / bucket)
				if c >= 0 && c < opt.Width {
					epochCols[c] = true
				}
				continue
			}
			if !wanted(e.Kind) {
				continue
			}
			for c := int((e.Start - tmin) / bucket); c <= int((e.End-tmin)/bucket) && c < opt.Width; c++ {
				if c < 0 {
					continue
				}
				bs := tmin + int64(c)*bucket
				be := bs + bucket
				s, en := e.Start, e.End
				if s < bs {
					s = bs
				}
				if en > be {
					en = be
				}
				if en > s {
					fill[c] += en - s
				}
			}
		}
		line := make([]byte, opt.Width)
		for c := range line {
			line[c] = shade(float64(fill[c]) / float64(bucket))
		}
		fmt.Fprintf(&b, "T%03d |%s|\n", tid, line)
	}
	// Epoch projections from threads beyond the shown rows too.
	for tid := rows; tid < r.Threads(); tid++ {
		for e := range r.Events(tid) {
			if e.Kind == KindEpochAdvance {
				c := int((e.Start - tmin) / bucket)
				if c >= 0 && c < opt.Width {
					epochCols[c] = true
				}
			}
		}
	}
	footer := make([]byte, opt.Width)
	for c := range footer {
		if epochCols[c] {
			footer[c] = '*'
		} else {
			footer[c] = ' '
		}
	}
	fmt.Fprintf(&b, "epoch|%s|\n", footer)
	return b.String()
}

// GarbageCurve extracts (time_ns, garbage) samples across all threads in
// time order, for the paper's garbage-per-epoch plots (Figs. 4, 6-9).
func GarbageCurve(r *Recorder) (times []int64, garbage []int64) {
	if r == nil {
		return nil, nil
	}
	r.MergeAll()
	type pt struct{ t, g int64 }
	var pts []pt
	for tid := 0; tid < r.Threads(); tid++ {
		for e := range r.Events(tid) {
			if e.Kind == KindGarbageSample {
				pts = append(pts, pt{e.Start, e.Value})
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].t < pts[j].t })
	for _, p := range pts {
		times = append(times, p.t)
		garbage = append(garbage, p.g)
	}
	return times, garbage
}

// RenderGarbageCurve draws the garbage samples as a simple ASCII bar chart.
func RenderGarbageCurve(r *Recorder, width int) string {
	times, garbage := GarbageCurve(r)
	if len(times) == 0 {
		return "(no garbage samples)\n"
	}
	if width <= 0 {
		width = 60
	}
	var max int64 = 1
	for _, g := range garbage {
		if g > max {
			max = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "garbage per epoch (max %d objects):\n", max)
	for i, g := range garbage {
		n := int(int64(width) * g / max)
		fmt.Fprintf(&b, "%10.3fms |%-*s| %d\n",
			float64(times[i])/1e6, width, strings.Repeat("#", n), g)
	}
	return b.String()
}
