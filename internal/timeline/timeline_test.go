package timeline

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
)

const ms = int64(time.Millisecond)

func TestRecordAndRead(t *testing.T) {
	r := NewRecorder(2, 8)
	start := r.Origin()
	r.Record(0, KindBatchFree, start, start+ms, 42)
	r.Record(1, KindBatchFree, start+ms, start+2*ms, 7)
	if got := r.TotalEvents(); got != 2 {
		t.Fatalf("TotalEvents = %d, want 2", got)
	}
	ev := slices.Collect(r.Events(0))[0]
	if ev.Value != 42 || ev.Kind != KindBatchFree {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Duration() != time.Millisecond {
		t.Fatalf("duration = %v", ev.Duration())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	now := clock.Now()
	r.Record(0, KindBatchFree, now, now, 1)
	r.MarkAt(0, KindEpochAdvance, now, 1)
	if r.Threads() != 0 || r.TotalEvents() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder not inert")
	}
	if got := RenderASCII(r, RenderOptions{}); !strings.Contains(got, "no timeline") {
		t.Fatalf("nil render = %q", got)
	}
	times, garbage := GarbageCurve(r)
	if times != nil || garbage != nil {
		t.Fatal("nil GarbageCurve not empty")
	}
}

func TestCapacityBoundAndDropped(t *testing.T) {
	r := NewRecorder(1, 3)
	now := r.Origin()
	for i := 0; i < 10; i++ {
		r.Record(0, KindBatchFree, now, now+ms, int64(i))
	}
	if got := len(slices.Collect(r.Events(0))); got != 3 {
		t.Fatalf("events = %d, want capacity 3", got)
	}
	if got := r.Dropped(); got != 7 {
		t.Fatalf("Dropped = %d, want 7", got)
	}
}

func TestFreeCallThresholdFilters(t *testing.T) {
	r := NewRecorder(1, 10)
	now := r.Origin()
	r.Record(0, KindFreeCall, now, now+int64(time.Microsecond), 1) // below 100µs
	if r.TotalEvents() != 0 {
		t.Fatal("short free call not filtered")
	}
	r.Record(0, KindFreeCall, now, now+ms, 1)
	if r.TotalEvents() != 1 {
		t.Fatal("long free call filtered")
	}
	// Batch events are never filtered by the threshold.
	r.Record(0, KindBatchFree, now, now+1, 1)
	if r.TotalEvents() != 2 {
		t.Fatal("batch event filtered")
	}
	// Sub-threshold filtering is not truncation.
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d after threshold filtering, want 0", r.Dropped())
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder(1, 4)
	now := r.Origin()
	r.Record(0, KindBatchFree, now, now+ms, 5)
	r.MarkAt(0, KindEpochAdvance, clock.Coarse(), 3)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "tid,kind,start_ns,end_ns,value\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "batch_free") || !strings.Contains(out, "epoch_advance") {
		t.Fatalf("missing rows: %q", out)
	}
}

func TestWriteCSVReportsDropped(t *testing.T) {
	r := NewRecorder(1, 1)
	now := r.Origin()
	r.Record(0, KindBatchFree, now, now+ms, 1)
	r.Record(0, KindBatchFree, now, now+ms, 2)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "# dropped=1\n") {
		t.Fatalf("dropped count not surfaced: %q", sb.String())
	}
}

func TestRenderASCIIShadesAndEpochs(t *testing.T) {
	r := NewRecorder(2, 16)
	now := r.Origin()
	// Thread 0 busy freeing for the whole first half of the span.
	r.Record(0, KindBatchFree, now, now+50*ms, 100)
	// Thread 1 advances the epoch near the end.
	r.Record(1, KindEpochAdvance, now+99*ms, now+99*ms, 1)
	r.Record(1, KindBatchFree, now+90*ms, now+100*ms, 10)
	out := RenderASCII(r, RenderOptions{Width: 20})
	if !strings.Contains(out, "T000") || !strings.Contains(out, "T001") {
		t.Fatalf("missing thread rows:\n%s", out)
	}
	if !strings.Contains(out, "X") {
		t.Fatalf("no full shading for a half-span event:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("no epoch dot in footer:\n%s", out)
	}
	if strings.Contains(out, "dropped") {
		t.Fatalf("dropped annotation without drops:\n%s", out)
	}
}

func TestRenderASCIIReportsDropped(t *testing.T) {
	r := NewRecorder(1, 1)
	now := r.Origin()
	r.Record(0, KindBatchFree, now, now+ms, 1)
	r.Record(0, KindBatchFree, now, now+ms, 2)
	out := RenderASCII(r, RenderOptions{Width: 10})
	if !strings.Contains(out, "dropped=1") {
		t.Fatalf("dropped count not in header:\n%s", out)
	}
}

func TestRenderASCIIEmpty(t *testing.T) {
	r := NewRecorder(1, 4)
	if got := RenderASCII(r, RenderOptions{}); !strings.Contains(got, "no events") {
		t.Fatalf("empty render = %q", got)
	}
}

func TestRenderMaxRows(t *testing.T) {
	r := NewRecorder(5, 4)
	now := r.Origin()
	for tid := 0; tid < 5; tid++ {
		r.Record(tid, KindBatchFree, now, now+ms, 1)
	}
	out := RenderASCII(r, RenderOptions{Width: 10, MaxRows: 2})
	if strings.Contains(out, "T002") {
		t.Fatalf("MaxRows not honoured:\n%s", out)
	}
}

func TestGarbageCurveSorted(t *testing.T) {
	r := NewRecorder(2, 8)
	now := r.Origin()
	r.Record(1, KindGarbageSample, now+2*ms, now+2*ms, 30)
	r.Record(0, KindGarbageSample, now+ms, now+ms, 10)
	times, garbage := GarbageCurve(r)
	if len(times) != 2 || times[0] > times[1] {
		t.Fatalf("times not sorted: %v", times)
	}
	if garbage[0] != 10 || garbage[1] != 30 {
		t.Fatalf("garbage = %v", garbage)
	}
	out := RenderGarbageCurve(r, 20)
	if !strings.Contains(out, "max 30") {
		t.Fatalf("garbage render = %q", out)
	}
}

func TestMarkNeverBeforeOrigin(t *testing.T) {
	r := NewRecorder(1, 4)
	// StageMark uses the coarse clock, which may lag the origin stamp taken
	// at construction; events must still never start before the origin.
	r.StageMark(0, KindEpochAdvance, 1)
	if ev := slices.Collect(r.Events(0))[0]; ev.Start < 0 {
		t.Fatalf("StageMark produced pre-origin event: %+v", ev)
	}
}

func TestEventKindStrings(t *testing.T) {
	names := map[EventKind]string{
		KindBatchFree:     "batch_free",
		KindFreeCall:      "free_call",
		KindEpochAdvance:  "epoch_advance",
		KindGarbageSample: "garbage",
		EventKind(99):     "kind(99)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(k), k.String(), want)
		}
	}
}

// TestStagedPipelineMatchesLegacy is the unit-level parity pin: a raw entry
// stream driven through the staging rings, teed into a same-origin reference
// recorder via ReplayEntry, must produce bit-identical CSV and
// ASCII output — threshold filtering, mark clamping, capacity drops and
// origin rebasing all included.
func TestStagedPipelineMatchesLegacy(t *testing.T) {
	t.Run("capacity", func(t *testing.T) {
		const capEach = 8 // small enough that the stream overflows it
		stagedParity(t, 2, capEach, func(r *Recorder) {
			origin := r.Origin()
			for tid := 0; tid < 2; tid++ {
				base := origin + int64(tid)*ms
				for i := int64(0); i < 12; i++ {
					// Sub-threshold free call: filtered by both paths.
					r.ObserveFree(tid, base+i*ms, base+i*ms+int64(time.Microsecond))
					// Long free call: recorded (or dropped at capacity) by both.
					r.ObserveFree(tid, base+i*ms, base+i*ms+ms/2)
					r.StageBatchFree(tid, base+i*ms, base+(i+1)*ms, 64)
					r.StageMark(tid, KindEpochAdvance, i)
					r.StageMark(tid, KindGarbageSample, 100*i)
				}
			}
		})
	})

	// Each thread commits across four chunk seams, puts a mark first in
	// every chunk, merges at edges that do not line up with the seams, and
	// overflows a capacity that ends mid-chunk. The events before each mark
	// start seconds ahead of its coarse stamp, so the clamp must carry the
	// previous chunk's last start across the seam.
	t.Run("chunk seams", func(t *testing.T) {
		const (
			capEach = 5*chunkSize - 100
			commits = capEach + 50
		)
		r := stagedParity(t, 2, capEach, func(r *Recorder) {
			ahead := r.Origin() + 10*int64(time.Second)
			for tid := 0; tid < 2; tid++ {
				for k := int64(0); k < commits; k++ {
					start := ahead + k*int64(time.Microsecond)
					switch {
					case k%chunkSize == 0:
						r.StageMark(tid, KindEpochAdvance, k)
					case k%3 == 0:
						r.ObserveFree(tid, start, start+ms/2)
					default:
						r.StageBatchFree(tid, start, start+ms, k)
					}
					if k%5 == 0 {
						r.ObserveFree(tid, start, start+1) // filtered, commits nothing
					}
					if k%61 == 0 {
						r.Merge(tid)
					}
				}
			}
		})
		for tid := 0; tid < 2; tid++ {
			evs := slices.Collect(r.Events(tid))
			if len(evs) != capEach {
				t.Fatalf("tid %d committed %d events, want %d", tid, len(evs), capEach)
			}
			for k := chunkSize; k < len(evs); k += chunkSize {
				if e := evs[k]; e.Kind != KindEpochAdvance || e.Start != evs[k-1].Start {
					t.Fatalf("tid %d event %d = %+v, want a mark clamped to the previous start %d", tid, k, e, evs[k-1].Start)
				}
			}
		}
		if got, want := r.Dropped(), int64(2*(commits-capEach)); got != want {
			t.Fatalf("Dropped = %d, want %d", got, want)
		}
	})
}

// stagedParity builds a staged recorder and a same-origin reference recorder
// fed by its raw tee, runs drive against the staged one, and fails unless
// the two agree on CSV, ASCII and Dropped. It returns the staged recorder.
func stagedParity(t *testing.T, threads, capEach int, drive func(r *Recorder)) *Recorder {
	t.Helper()
	r := NewRecorder(threads, capEach)
	ref := NewRecorderAt(r.Origin(), threads, capEach)
	r.SetRawTee(func(tid int, e Entry) { ref.ReplayEntry(tid, e) })
	drive(r)
	r.MergeAll()

	var got, want strings.Builder
	if err := r.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("CSV diverged:\nstaged:\n%s\nreference:\n%s", got.String(), want.String())
	}
	opts := RenderOptions{Width: 40, Kinds: []EventKind{KindBatchFree, KindFreeCall}}
	if g, w := RenderASCII(r, opts), RenderASCII(ref, opts); g != w {
		t.Fatalf("ASCII diverged:\nstaged:\n%s\nreference:\n%s", g, w)
	}
	if g, w := r.Dropped(), ref.Dropped(); g != w {
		t.Fatalf("Dropped diverged: staged %d, reference %d", g, w)
	}
	return r
}

// TestRecorderAllocatesWhatItKeeps pins the chunked commit: a thread that
// commits many events allocates them once, with one chunk of slack for the
// chunk list.
func TestRecorderAllocatesWhatItKeeps(t *testing.T) {
	const n = 40 * chunkSize
	eventBytes := uint64(unsafe.Sizeof(Event{}))
	limit := chunkSize*eventBytes + n*eventBytes*11/10
	// The least of three runs, so a background allocation cannot fail it.
	least := ^uint64(0)
	for range 3 {
		r := NewRecorder(1, 100000)
		now := r.Origin()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			r.StageBatchFree(0, now, now+ms, 1)
		}
		r.MergeAll()
		runtime.ReadMemStats(&after)
		if got := r.TotalEvents(); got != n {
			t.Fatalf("TotalEvents = %d, want %d", got, n)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > limit {
		t.Fatalf("%d events allocated %d bytes, want at most %d (%d kept)", n, least, limit, n*eventBytes)
	}
}

// TestStageRingSelfMerge pins the overflow backstop: staging more entries
// than the ring holds, with no explicit Merge, loses nothing.
func TestStageRingSelfMerge(t *testing.T) {
	const n = 3*stageSize + 17
	r := NewRecorder(1, 4*stageSize)
	now := r.Origin()
	for i := 0; i < n; i++ {
		r.StageBatchFree(0, now, now+ms, 1)
	}
	if got := r.TotalEvents(); got != n {
		t.Fatalf("TotalEvents = %d, want %d", got, n)
	}
}

// TestStagedDropAccounting: recordable staged events past the committed
// capacity count as dropped; filtered sub-threshold frees never do.
func TestStagedDropAccounting(t *testing.T) {
	r := NewRecorder(1, 2)
	now := r.Origin()
	for i := 0; i < 5; i++ {
		r.StageBatchFree(0, now, now+ms, 1)
	}
	r.ObserveFree(0, now, now+1) // sub-threshold: filtered, uncounted
	r.MergeAll()
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
}

// TestMuteFreesSilencesObserver: muted threads stage no free calls, other
// staged kinds are unaffected, and unmuting restores the flow.
func TestMuteFreesSilencesObserver(t *testing.T) {
	r := NewRecorder(1, 8)
	now := r.Origin()
	r.MuteFrees(0)
	r.ObserveFree(0, now, now+ms)
	r.StageBatchFree(0, now, now+ms, 1)
	r.UnmuteFrees(0)
	r.ObserveFree(0, now, now+ms)
	r.MergeAll()
	if got := r.TotalEvents(); got != 2 {
		t.Fatalf("TotalEvents = %d, want 2 (muted free observed?)", got)
	}
}

// TestStagedClockReads pins the extra-read accounting: two per batch-free
// envelope, none for observer entries or marks.
func TestStagedClockReads(t *testing.T) {
	r := NewRecorder(1, 64)
	now := r.Origin()
	r.StageBatchFree(0, now, now+ms, 4)
	r.StageBatchFree(0, now, now+ms, 4)
	r.ObserveFree(0, now, now+ms)
	r.StageMark(0, KindEpochAdvance, 1)
	if got := r.ClockReads(); got != 4 {
		t.Fatalf("ClockReads = %d, want 4", got)
	}
}

// TestNilRecorderStagedSafe: the staged API is inert on a nil recorder.
func TestNilRecorderStagedSafe(t *testing.T) {
	var r *Recorder
	now := clock.Now()
	r.ObserveFree(0, now, now+ms)
	r.StageBatchFree(0, now, now+ms, 1)
	r.StageMark(0, KindEpochAdvance, 1)
	r.Merge(0)
	r.MergeAll()
	r.MuteFrees(0)
	r.UnmuteFrees(0)
	if r.ClockReads() != 0 || r.TotalEvents() != 0 {
		t.Fatal("nil recorder not inert on the staged API")
	}
}

// BenchmarkObserveFree is the recorded-trial free path after the ring
// surgery: one masked store per observed slow-path free, no clock reads.
func BenchmarkObserveFree(b *testing.B) {
	r := NewRecorder(1, 1<<20)
	now := r.Origin()
	for i := 0; i < b.N; i++ {
		r.ObserveFree(0, now, now+1)
	}
}

func BenchmarkRecordBatchFree(b *testing.B) {
	r := NewRecorder(1, 1<<20)
	now := r.Origin()
	for i := 0; i < b.N; i++ {
		r.Record(0, KindBatchFree, now, now+ms, 1)
		if i%chunkSize == chunkSize-1 {
			// Empty the one full chunk in place: commit cost, not allocation.
			r.perThread[0].tail = r.perThread[0].tail[:0]
		}
	}
}
