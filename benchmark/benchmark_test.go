package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.json from the untraced driver")

const (
	specFile        = "../BENCHMARK.json"
	fingerprintFile = "testdata/fingerprints.json"
)

// smokeSize runs every code path of a workload in well under a second.
var smokeSize = sizing{
	MinRepeats: 2, MaxRepeats: 2,
	FixedOps:   2500,
	OpenWindow: 250 * time.Millisecond,
	SweepOps:   4000, LocalSeeds: 2, FleetSeeds: 2,
	TraceRepeats: 1, TraceOps: 2500,
	Par2Repeats: 2, Par2Ops: 2500,
	LoopCalls: 1 << 10,
}

func smokeOptions(t *testing.T, trace bool) options {
	t.Helper()
	runtime.GOMAXPROCS(pinnedProcs)
	return options{seed: 7, trace: trace, size: smokeSize, dir: t.TempDir(), fingerprints: fingerprintFile}
}

func mustSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestFingerprintsPinned holds the committed fingerprints to the harness:
// the untraced driver over bench.NewStack must reproduce bench.RunTrial's
// modelled counters, and both must equal the pinned file.
func TestFingerprintsPinned(t *testing.T) {
	runtime.GOMAXPROCS(pinnedProcs)
	got := map[string]fingerprint{}
	for i := range workloads {
		w := &workloads[i]
		if w.trial == nil {
			continue
		}
		cfg := fingerprintConfig(w)
		d, err := drive(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.RunTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprintOf(d)
		harness := fingerprint{
			Ops: res.Ops, Allocs: res.Alloc.Allocs, Frees: res.Alloc.Frees, RemoteFrees: res.Alloc.RemoteFrees,
			Flushes: res.Alloc.Flushes, FreshPages: res.Alloc.FreshPages,
			Retired: res.SMR.Retired, Freed: res.SMR.Freed, Epochs: res.SMR.Epochs,
			SetSize: fp.SetSize, // RunTrial does not report the set size
		}
		if fp != harness {
			t.Errorf("%s: driver %+v differs from bench.RunTrial %+v", w.name, fp, harness)
		}
		got[w.name] = fp
	}
	if *update {
		if err := writeJSON(fingerprintFile, got); err != nil {
			t.Fatal(err)
		}
		return
	}
	var pinned map[string]fingerprint
	if err := readJSON(fingerprintFile, &pinned); err != nil {
		t.Fatal(err)
	}
	for name, fp := range got {
		if pinned[name] != fp {
			t.Errorf("%s: got %+v, pinned %+v (run go test ./benchmark -run Fingerprints -update after a deliberate model change)", name, fp, pinned[name])
		}
	}
}

// TestTracingIsTransparent: the wrappers must not change what the stack
// does — a traced Threads=1 trial has the untraced fingerprint.
func TestTracingIsTransparent(t *testing.T) {
	runtime.GOMAXPROCS(pinnedProcs)
	for i := range workloads {
		w := &workloads[i]
		if w.trial == nil {
			continue
		}
		cfg := fingerprintConfig(w)
		cfg.FixedOps = 20000
		plain, err := drive(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(cfg.Threads, 8*cfg.FixedOps)
		traced, err := drive(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := fingerprintOf(plain), fingerprintOf(traced); a != b {
			t.Errorf("%s: untraced %+v, traced %+v", w.name, a, b)
		}
		if len(tr.threads[0].spans) < cfg.FixedOps {
			t.Errorf("%s: %d spans for %d ops", w.name, len(tr.threads[0].spans), cfg.FixedOps)
		}
	}
}

// TestSelfTimesSumToSpan: within every op, the raw self times of the op and
// of everything nested in it add up to the op's own duration; the reduction
// then gives every layer on the path some self time and leaves the driver a
// share of the thread time.
func TestSelfTimesSumToSpan(t *testing.T) {
	runtime.GOMAXPROCS(pinnedProcs)
	cfg := closedForm(workloads[0].trial(smokeSize), 5000)
	tr := newTracer(cfg.Threads, 8*cfg.FixedOps)
	if _, err := drive(cfg, tr); err != nil {
		t.Fatal(err)
	}
	for ti := range tr.threads {
		spans := tr.threads[ti].spans
		childDur := make([]int64, len(spans))
		root := make([]int32, len(spans))
		selfByRoot := map[int32]int64{}
		for i, s := range spans {
			if s.end < s.start {
				t.Fatalf("thread %d span %d ends before it starts", ti, i)
			}
			root[i] = int32(i)
			if s.parent >= 0 {
				childDur[s.parent] += s.end - s.start
				root[i] = root[s.parent]
			}
		}
		for i, s := range spans {
			selfByRoot[root[i]] += s.end - s.start - childDur[i]
		}
		for r, self := range selfByRoot {
			if dur := spans[r].end - spans[r].start; self != dur {
				t.Fatalf("thread %d: self times under span %d sum to %d, span lasts %d", ti, r, self, dur)
			}
		}
	}
	red := tr.reduce()
	if d := red.driverNs(); d <= 0 || d >= red.threadNs {
		t.Errorf("driver time %.0f ns of %.0f ns thread time", d, red.threadNs)
	}
	if red.selfNs[layerAlloc] <= 0 || red.selfNs[layerSMR] <= 0 || red.selfNs[layerDS] <= 0 {
		t.Errorf("a layer has no self time: %+v", red.selfNs)
	}
}

// TestWorkloadsReportDeclaredMetrics runs every workload in both modes at
// smoke size: each must be correct and report exactly the metrics
// BENCHMARK.json declares for the mode, with the declared units.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	spec := mustSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, d := range spec.Workloads {
		if d.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the program %s", i, d.Name, workloads[i].name)
		}
	}
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			wo := w.run(smokeOptions(t, trace), spec)
			for _, f := range wo.Failures {
				if strings.HasPrefix(f, backlogFailure) {
					// Whether the open loop keeps up is a property of the host
					// (it cannot under the race detector), not of this code.
					t.Logf("%s trace=%v: %s", w.name, trace, f)
					continue
				}
				t.Errorf("%s trace=%v: failed check: %s", w.name, trace, f)
			}
			decls := spec.decls(trace)
			if len(wo.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.name, trace, len(wo.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := wo.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.name, trace, d.Name, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
			if trace {
				checkLayerSeparation(t, w, wo)
			}
		}
	}
}

// checkLayerSeparation: a workload reports non-zero numbers for the layers
// it executes and zeros for the ones it does not.
func checkLayerSeparation(t *testing.T, w *workload, wo WorkloadOutput) {
	t.Helper()
	nonZero := func(name string) bool { return wo.Metrics[name].Value != 0 }
	want := map[string]bool{
		"ds.self_share_pct":              w.trial != nil,
		"simalloc.self_share_pct":        w.trial != nil,
		"smr.guard_protect_ns":           w.name == "read_hazard",
		"arrival.lat_p99_ms":             w.name == "open_stalled_recorded",
		"timeline.observe_free_ns":       w.name == "open_stalled_recorded",
		"grid.trials_per_s":              w.trial == nil,
		"results.append_us_p50":          w.trial == nil,
		"fleet.lease_rpc_us_p50":         w.fleet,
		"fleet.complete_direct_us":       w.fleet,
		"bench.par2_cpu_ns_per_simop_q3": w.name == "read_hazard",
	}
	for name, expect := range want {
		if nonZero(name) != expect {
			t.Errorf("%s: %s = %v, want non-zero: %v", w.name, name, wo.Metrics[name].Value, expect)
		}
	}
}

// TestCompare: an output compared with itself is all within; shifted
// medians are classified by the bound and the quartile overlap; outputs from
// differently shaped hosts are refused.
func TestCompare(t *testing.T) {
	spec := mustSpec(t)
	w := &workloads[0]
	wo := w.run(smokeOptions(t, false), spec)
	out := Output{Host: Host{NProc: 2, GOMAXPROCS: 2, Comparable: true}, Workloads: []WorkloadOutput{wo}}

	rows := compareOutputs(spec, out, out)
	if len(rows) != len(spec.EndToEnd) {
		t.Fatalf("%d rows, want %d", len(rows), len(spec.EndToEnd))
	}
	for _, r := range rows {
		if r.Verdict != verdictWithin {
			t.Errorf("self-compare %s: %s", r.Metric, r.Verdict)
		}
	}

	higher := MetricDecl{Name: "simops_per_s", Better: "higher", Bound: 0.10}
	a := Metric{Value: 100, Q1: 98, Q3: 102, N: 15}
	for _, tc := range []struct {
		b    Metric
		want string
	}{
		{Metric{Value: 95, Q1: 93, Q3: 97}, verdictWithin},
		{Metric{Value: 80, Q1: 78, Q3: 82}, verdictWorse},
		{Metric{Value: 120, Q1: 118, Q3: 122}, verdictBetter},
		{Metric{Value: 85, Q1: 70, Q3: 99}, verdictUnresolved},
	} {
		if got := compareMetric("w", higher, a, tc.b).Verdict; got != tc.want {
			t.Errorf("b=%v: %s, want %s", tc.b.Value, got, tc.want)
		}
	}

	dir := t.TempDir()
	fileA, fileB := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(fileA, out); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", specFile, "-compare", fileA, fileA}, &stdout, &stderr); code != 0 {
		t.Errorf("-compare of an output with itself exits %d: %s%s", code, stdout.String(), stderr.String())
	}
	for _, host := range []Host{
		{NProc: 1, GOMAXPROCS: 2, Comparable: false},
		{NProc: 4, GOMAXPROCS: 2, Comparable: true},
	} {
		other := out
		other.Host = host
		if err := writeJSON(fileB, other); err != nil {
			t.Fatal(err)
		}
		if code := run([]string{"-spec", specFile, "-compare", fileA, fileB}, &stdout, &stderr); code != 2 {
			t.Errorf("-compare against host %+v exits %d, want 2", host, code)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
}
