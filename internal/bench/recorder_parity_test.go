package bench

import (
	"bytes"
	"testing"

	"repro/internal/timeline"
)

// runTeedTrial is RunTrial's path — the one coordinator over the resolved
// schedule — with one addition: before any event can be produced (including
// prefill traffic), the live recorder's raw staged stream is teed into a same-origin reference recorder that
// replays every entry through the reference path (timeline.ReplayEntry).
// Wall-clock stamps are nondeterministic, so recorder parity is defined over
// the raw stream: the staged pipeline's deferred post-processing (threshold
// filter, mark clamp, drop accounting, origin rebase) must commit exactly
// what the per-event reference commits when both see the same entries.
func runTeedTrial(t *testing.T, cfg WorkloadConfig) (live, ref *timeline.Recorder) {
	t.Helper()
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capEach := cfg.RecorderCap
	if capEach <= 0 {
		capEach = 100000
	}
	ref = timeline.NewRecorderAt(st.Recorder.Origin(), cfg.Threads, capEach)
	ref.FreeCallThreshold = st.Recorder.FreeCallThreshold
	st.Recorder.SetRawTee(ref.ReplayEntry)

	prefill(&cfg, st)

	runs, _, err := resolveSchedule(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runPhases(&cfg, st, runs); err != nil {
		t.Fatal(err)
	}
	st.Stop()
	// Close drains remaining limbo; synchronous reclaimers stage their final
	// bags here, so parity is compared over the complete event stream.
	st.Close()
	return st.Recorder, ref
}

// compareRecorders asserts byte-identical CSV and ASCII output plus matching
// drop counters between the staged pipeline and its reference replay.
func compareRecorders(t *testing.T, live, ref *timeline.Recorder) {
	t.Helper()
	var csvLive, csvRef bytes.Buffer
	if err := live.WriteCSV(&csvLive); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteCSV(&csvRef); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvLive.Bytes(), csvRef.Bytes()) {
		t.Errorf("WriteCSV differs between staged pipeline and reference replay:\nstaged:\n%s\nreference:\n%s",
			csvLive.String(), csvRef.String())
	}
	opts := timeline.RenderOptions{Width: 80}
	asciiLive := timeline.RenderASCII(live, opts)
	asciiRef := timeline.RenderASCII(ref, opts)
	if asciiLive != asciiRef {
		t.Errorf("RenderASCII differs between staged pipeline and reference replay:\nstaged:\n%s\nreference:\n%s",
			asciiLive, asciiRef)
	}
	if dl, dr := live.Dropped(), ref.Dropped(); dl != dr {
		t.Errorf("Dropped differs: staged %d, reference replay %d", dl, dr)
	}
	if live.TotalEvents() == 0 {
		t.Error("trial produced no timeline events; parity test is vacuous")
	}
}

// TestTrialRecorderParity is the tentpole's output pin: for a recorded
// FixedOps trial of each reclaimer family, the staging-ring pipeline's
// WriteCSV and RenderASCII output is bit-identical to the reference per-event
// recorder fed the same raw entries. Families cover the producer variants:
// debra (epoch batch free + amortized-free siblings share its freer), hp
// (scan-triggered batch free), he (era marks), token_af (token ring with
// amortized freeing and mid-batch token checks).
func TestTrialRecorderParity(t *testing.T) {
	cases := []struct{ reclaimer, tree string }{
		{"debra", "abtree"},
		{"hp", "occtree"},
		{"he", "dgtree"},
		{"token_af", "abtree"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.reclaimer+"/"+tc.tree, func(t *testing.T) {
			t.Parallel()
			cfg := parityConfig(tc.reclaimer, tc.tree)
			cfg.Threads = 2
			cfg.Record = true
			live, ref := runTeedTrial(t, cfg)
			compareRecorders(t, live, ref)
		})
	}
}

// TestTrialRecorderParityDropped exercises drop parity: a recorder capacity
// far below the trial's event volume forces the buffer-full path on both
// pipelines, and truncation point, drop counts, and truncated output must
// still agree byte-for-byte.
func TestTrialRecorderParityDropped(t *testing.T) {
	cfg := parityConfig("debra", "abtree")
	cfg.Threads = 2
	cfg.Record = true
	cfg.RecorderCap = 4
	live, ref := runTeedTrial(t, cfg)
	compareRecorders(t, live, ref)
	if live.Dropped() == 0 {
		t.Error("expected drops with RecorderCap=4; drop parity is vacuous")
	}
}
