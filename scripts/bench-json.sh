#!/usr/bin/env bash
# bench-json.sh — run the benchmark smoke suite plus a small experiment-grid
# sweep and emit both as one JSON artifact, continuing the repo's perf
# trajectory: each perf PR records a BENCH_<pr>.json so speedups and
# regressions are measured across PRs, not asserted.
#
# Usage: scripts/bench-json.sh <pr-number | output.json>
#        scripts/bench-json.sh 3            # writes BENCH_3.json
#        scripts/bench-json.sh results.json # writes results.json
# Env:   BENCHTIME=200ms   go test -benchtime value
#        GRID_DUR=40ms     per-trial window of the grid smoke sweep
#        RECTIME=500ms     -benchtime of the recording-overhead comparison
#        LAT_DUR=600ms     per-trial window of the open-system latency sweep
#
# Besides emitting the artifact, the script asserts the recording pipeline's
# overhead budget: recorded trials must self-report < 2% host overhead
# (pct_host) and keep >= 95% of unrecorded simops/s. The throughput ratio is
# scored from BenchmarkTrialPaired, which interleaves recorded and unrecorded
# trials so shared-runner drift cancels instead of landing in one side of the
# comparison; the separate recorded/unrecorded benchmarks are still captured
# side by side in the artifact. Each runs with -count=3 and best-of scoring
# (max throughput, min pct_host), since drift only ever depresses a run. A
# violation exits non-zero — after writing the artifact, so the failing
# numbers are kept.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  echo "usage: $0 <pr-number | output.json>" >&2
  exit 2
fi
case "$1" in
  *[!0-9]*) out="$1" ;;
  *) out="BENCH_$1.json" ;;
esac
benchtime="${BENCHTIME:-200ms}"
grid_dur="${GRID_DUR:-40ms}"
rectime="${RECTIME:-500ms}"
lat_dur="${LAT_DUR:-600ms}"

raw="$(go test -run=NONE -bench=. -benchtime="$benchtime" ./internal/...)"
printf '%s\n' "$raw"

# Scaling: the update trial on one P and on two (root package; on a 1-cpu
# host procs=2 is skipped, prints nothing and is absent from the artifact).
# Five trials a side: one is ~0.25 s, and a single one is too noisy to read.
scale_raw="$(go test -run=NONE -bench='^BenchmarkUpdateScaling$' -benchtime=5x .)"
printf '%s\n' "$scale_raw"
raw="$raw
$scale_raw"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

printf '%s\n' "$raw" | awk '
BEGIN { n = 0 }
/^pkg: / { pkg = $2 }
/^Benchmark/ {
  # "BenchmarkName-8  400  894067 ns/op  9162674 frees/s ..."
  name = $1; iters = $2
  metrics = ""
  for (i = 3; i + 1 <= NF; i += 2) {
    unit = $(i + 1); gsub(/"/, "", unit)
    metrics = metrics sprintf("%s\"%s\": %s", (metrics == "" ? "" : ", "), unit, $i)
  }
  lines[n++] = sprintf("    {\"pkg\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}", pkg, name, iters, metrics)
}
END {
  print "["
  for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
  print "  ]"
}
' > "$tmpdir/benchmarks.json"

# Grid smoke: a scenario × reclaimer sweep through the experiment grid
# engine, emitted as JSON (summaries carry the seeds they aggregate, and
# each summary's "phases" field records the resolved phase schedule its
# trials ran — empty for fixed-population trials — so the artifact is
# self-describing about thread churn). The churn scenario rides along to
# keep a phased workload in the benchmarked trajectory.
go run ./cmd/epochgrid \
  -scenarios paper,zipf,churn -reclaimers debra,debra_af,token_af -threads 4 \
  -dur "$grid_dur" -keyrange 4096 -trials 2 \
  -format json -out "$tmpdir/grid.json"

# Robustness sweep: one epoch-based and one hazard-family reclaimer, each
# healthy and with a stalled reader injected, so the artifact records the
# peak-limbo blowup ratio per scheme — the paper's bounded-garbage
# dichotomy as a tracked number (epoch blowup large and growing with the
# stall span; hazard blowup ~1).
go run ./cmd/epochgrid \
  -reclaimers debra,hp -threads 4 -faults "none;stall:w0@512~16384" \
  -ops 8000 -keyrange 4096 -batches 128 -deadline 30s -trials 1 \
  -format json -out "$tmpdir/robustness-grid.json"

read -r debra_healthy debra_faulted hp_healthy hp_faulted <<EOF2
$(awk '
  /"faults":/ { faulted = 1 }
  /"reclaimer":/ { rec = $2; gsub(/[",]/, "", rec) }
  /"mean_peak_limbo":/ {
    v = $2; gsub(/,/, "", v)
    limbo[rec (faulted ? "_faulted" : "_healthy")] = v
    faulted = 0
  }
  END { print limbo["debra_healthy"], limbo["debra_faulted"], limbo["hp_healthy"], limbo["hp_faulted"] }
' "$tmpdir/robustness-grid.json")
EOF2
if [ -z "${hp_faulted:-}" ]; then
  echo "bench-json: robustness sweep produced no limbo numbers" >&2
  exit 1
fi
debra_blowup="$(awk -v h="$debra_healthy" -v f="$debra_faulted" 'BEGIN { printf "%.2f", f / (h > 1 ? h : 1) }')"
hp_blowup="$(awk -v h="$hp_healthy" -v f="$hp_faulted" 'BEGIN { printf "%.2f", f / (h > 1 ? h : 1) }')"
printf 'robustness: stalled-reader peak-limbo blowup debra %s x (healthy %s -> faulted %s), hp %s x (healthy %s -> faulted %s)\n' \
  "$debra_blowup" "$debra_healthy" "$debra_faulted" "$hp_blowup" "$hp_healthy" "$hp_faulted"

# Open-system latency sweep: one unbounded epoch-based and one bounded
# hazard-family reclaimer under a 10x bursty arrival process, each healthy
# and with a stalled reader, so the artifact records the tail-latency
# dichotomy as a tracked number: the stall turns into queueing delay, and
# the unbounded scheme's stalled p999 should sit at or above the bounded
# one's. -parallel stays 1: latency quantiles are timing measurements.
lat_arrival="bursty:150000@20ms~0.1"
lat_faults="stall:w0@5000~60000"
go run ./cmd/epochgrid \
  -reclaimers debra,hp -threads 4 -arrivals "$lat_arrival" \
  -faults "none;$lat_faults" -dur "$lat_dur" -keyrange 4096 \
  -deadline 30s -trials 1 -parallel 1 \
  -format json -out "$tmpdir/latency-grid.json"

read -r lat_debra_healthy lat_debra_stalled lat_hp_healthy lat_hp_stalled <<EOF2
$(awk '
  /"faults":/ { faulted = 1 }
  /"reclaimer":/ { rec = $2; gsub(/[",]/, "", rec) }
  /"lat_p999_ms":/ {
    v = $2; gsub(/,/, "", v)
    p999[rec (faulted ? "_stalled" : "_healthy")] = v
    faulted = 0
  }
  END { print p999["debra_healthy"], p999["debra_stalled"], p999["hp_healthy"], p999["hp_stalled"] }
' "$tmpdir/latency-grid.json")
EOF2
if [ -z "${lat_hp_stalled:-}" ]; then
  echo "bench-json: latency sweep produced no p999 numbers" >&2
  exit 1
fi
lat_ratio="$(awk -v u="$lat_debra_stalled" -v b="$lat_hp_stalled" 'BEGIN { printf "%.2f", u / (b > 0.001 ? b : 0.001) }')"
printf 'latency: stalled p999 debra %sms (healthy %sms), hp %sms (healthy %sms), unbounded/bounded ratio %s\n' \
  "$lat_debra_stalled" "$lat_debra_healthy" "$lat_hp_stalled" "$lat_hp_healthy" "$lat_ratio"

# Makespan comparison: the cost-aware sweep scheduler against raw
# expansion-order dispatch on the seeded heterogeneous synthetic sweep
# (TestMakespanSchedulerGain: 12 cheap trials expanded before one expensive
# trial — FIFO's worst case). Trial work is deterministic sleep, so the
# ratio measures scheduling alone. Gated below: >= 1.25x at parallel=4.
mk_raw="$(go test -run 'TestMakespanSchedulerGain' -v ./internal/grid/)"
printf '%s\n' "$mk_raw" | grep '^makespan:' || true

read -r mk4_fifo mk4_cost mk4_ratio mk8_fifo mk8_cost mk8_ratio <<EOF2
$(printf '%s\n' "$mk_raw" | awk '
  /^makespan: parallel=4 / {
    for (i = 2; i <= NF; i++) {
      split($i, kv, "=")
      if (kv[1] == "fifo_ms") f4 = kv[2]
      if (kv[1] == "cost_ms") c4 = kv[2]
      if (kv[1] == "ratio") r4 = kv[2]
    }
  }
  /^makespan: parallel=8 / {
    for (i = 2; i <= NF; i++) {
      split($i, kv, "=")
      if (kv[1] == "fifo_ms") f8 = kv[2]
      if (kv[1] == "cost_ms") c8 = kv[2]
      if (kv[1] == "ratio") r8 = kv[2]
    }
  }
  END { print f4, c4, r4, f8, c8, r8 }')
EOF2
if [ -z "${mk8_ratio:-}" ]; then
  echo "bench-json: makespan benchmark produced no numbers" >&2
  exit 1
fi

# Recording-overhead comparison: recorded vs unrecorded end-to-end trials,
# side by side. Three counts each; best-of scoring (see header comment).
rec_raw="$(go test -run=NONE -bench='BenchmarkTrial(Unrecorded|Recorded|Paired)$' \
  -benchtime="$rectime" -count=3 ./internal/bench/)"
printf '%s\n' "$rec_raw"

read -r unrec_ops unrec_pct rec_ops rec_pct pair_ratio pair_pct <<EOF2
$(printf '%s\n' "$rec_raw" | awk '
  /^BenchmarkTrialUnrecorded/ {
    for (i = 3; i + 1 <= NF; i += 2) {
      if ($(i+1) == "simops/s" && $i + 0 > uo + 0) uo = $i
      if ($(i+1) == "pct_host" && (up == "" || $i + 0 < up + 0)) up = $i
    }
  }
  /^BenchmarkTrialRecorded/ {
    for (i = 3; i + 1 <= NF; i += 2) {
      if ($(i+1) == "simops/s" && $i + 0 > ro + 0) ro = $i
      if ($(i+1) == "pct_host" && (rp == "" || $i + 0 < rp + 0)) rp = $i
    }
  }
  /^BenchmarkTrialPaired/ {
    for (i = 3; i + 1 <= NF; i += 2) {
      if ($(i+1) == "rec_ratio_pct" && $i + 0 > pr + 0) pr = $i
      if ($(i+1) == "rec_pct_host" && (pp == "" || $i + 0 < pp + 0)) pp = $i
    }
  }
  END { print uo, up, ro, rp, pr, pp }')
EOF2
if [ -z "${pair_pct:-}" ]; then
  echo "bench-json: recording benchmarks missing from output" >&2
  exit 1
fi
printf 'recording: unrecorded %s simops/s (pct_host %s), recorded %s simops/s (pct_host %s), paired ratio %s%% (pct_host %s)\n' \
  "$unrec_ops" "$unrec_pct" "$rec_ops" "$rec_pct" "$pair_ratio" "$pair_pct"

# Host metadata, so BENCH_*.json deltas across PRs are attributable: a
# throughput change means nothing without knowing whether the go toolchain
# or the core count moved underneath it. GOMAXPROCS comes from the Go
# runtime itself (cgroup limits and env handling included), not a guess.
goversion="$(go env GOVERSION)"
cpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
cat > "$tmpdir/gomaxprocs.go" <<'EOF'
package main

import (
	"fmt"
	"runtime"
)

func main() { fmt.Print(runtime.GOMAXPROCS(0)) }
EOF
gomaxprocs="$(go run "$tmpdir/gomaxprocs.go")"

{
  printf '{\n'
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "host": {"go": "%s", "gomaxprocs": %s, "cpus": %s, "os": "%s", "arch": "%s"},\n' \
    "$goversion" "$gomaxprocs" "$cpus" "$(go env GOOS)" "$(go env GOARCH)"
  printf '  "recording": {"benchtime": "%s", "unrecorded": {"simops_per_s": %s, "pct_host": %s}, "recorded": {"simops_per_s": %s, "pct_host": %s}, "paired_ratio_pct": %s, "paired_pct_host": %s},\n' \
    "$rectime" "$unrec_ops" "$unrec_pct" "$rec_ops" "$rec_pct" "$pair_ratio" "$pair_pct"
  printf '  "robustness": {"faults": "stall:w0@512~16384", "debra": {"healthy_peak_limbo": %s, "faulted_peak_limbo": %s, "blowup": %s}, "hp": {"healthy_peak_limbo": %s, "faulted_peak_limbo": %s, "blowup": %s}},\n' \
    "$debra_healthy" "$debra_faulted" "$debra_blowup" "$hp_healthy" "$hp_faulted" "$hp_blowup"
  printf '  "latency": {"arrival": "%s", "faults": "%s", "dur": "%s", "debra": {"healthy_p999_ms": %s, "stalled_p999_ms": %s}, "hp": {"healthy_p999_ms": %s, "stalled_p999_ms": %s}, "stalled_ratio": %s},\n' \
    "$lat_arrival" "$lat_faults" "$lat_dur" "$lat_debra_healthy" "$lat_debra_stalled" "$lat_hp_healthy" "$lat_hp_stalled" "$lat_ratio"
  printf '  "makespan": {"gate": 1.25, "parallel4": {"fifo_ms": %s, "cost_ms": %s, "ratio": %s}, "parallel8": {"fifo_ms": %s, "cost_ms": %s, "ratio": %s}},\n' \
    "$mk4_fifo" "$mk4_cost" "$mk4_ratio" "$mk8_fifo" "$mk8_cost" "$mk8_ratio"
  printf '  "benchmarks": '
  cat "$tmpdir/benchmarks.json"
  printf ',\n  "grid": '
  cat "$tmpdir/grid.json"
  printf '}\n'
} > "$out"
echo "wrote $out"

# Overhead gate, after the artifact is on disk so failures stay diagnosable.
if ! awk -v p="$pair_pct" -v rt="$pair_ratio" 'BEGIN { exit !(p + 0 < 2 && rt + 0 >= 95) }'; then
  echo "bench-json: recording overhead gate FAILED (need recorded pct_host < 2 and paired throughput ratio >= 95%; got pct_host $pair_pct, ratio $pair_ratio%)" >&2
  exit 1
fi
echo "recording overhead gate passed (pct_host $pair_pct < 2, paired ratio $pair_ratio% >= 95%)"

# Latency gate, deliberately lenient: burst-window tails are noisy on shared
# runners, so the gate only asserts the dichotomy's direction — both schemes
# observed a tail at all, and the unbounded scheme's stalled p999 did not
# fall below the bounded scheme's. The strict cross-scheme factor lives in
# the CI latency-smoke job's poisson sweep, which is far more stable.
if ! awk -v u="$lat_debra_stalled" -v b="$lat_hp_stalled" \
    'BEGIN { exit !(u + 0 > 0 && b + 0 > 0 && u + 0 >= b + 0) }'; then
  echo "bench-json: latency gate FAILED (need debra stalled p999 >= hp stalled p999 > 0; got debra $lat_debra_stalled ms, hp $lat_hp_stalled ms)" >&2
  exit 1
fi
echo "latency gate passed (debra stalled p999 $lat_debra_stalled ms >= hp $lat_hp_stalled ms)"

# Makespan gate: cost-ordered dispatch must beat expansion-order by >= 1.25x
# on the heterogeneous sweep at parallel=4. The deterministic-sleep trial
# bodies make this stable; the analytic ratio is ~1.5x, so 1.25 has margin.
if ! awk -v r="$mk4_ratio" 'BEGIN { exit !(r + 0 >= 1.25) }'; then
  echo "bench-json: makespan gate FAILED (need cost/fifo ratio >= 1.25 at parallel=4; got $mk4_ratio)" >&2
  exit 1
fi
echo "makespan gate passed (parallel=4 ratio $mk4_ratio >= 1.25)"

# Regenerate the cross-PR trajectory table whenever a new artifact lands.
scripts/bench-history.sh
