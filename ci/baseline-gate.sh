#!/usr/bin/env bash
# Regression gate of one CI sweep against the committed baseline:
#   ci/baseline-gate.sh <sweep store> [epochgrid -compare flags]
# Fails when epochgrid -compare does (a group regressed, or none matched) and
# also when the sweep has a group the baseline lacks. ci/grid-baseline.jsonl
# holds the groups of all three gated sweeps (grid-smoke, churn-smoke,
# latency-smoke), so only-old groups are expected and only-new ones mean it
# was regenerated from fewer sweeps than that, or the sweep's flags changed.
set -euo pipefail
store="$1"; shift
report="$(go run ./cmd/epochgrid -compare ci/grid-baseline.jsonl -with "$store" "$@")" || {
  printf '%s\n' "$report"; exit 1; }
printf '%s\n' "$report"
grep -q ' 0 only-new' <<<"$report" || {
  echo "baseline-gate: $store has groups ci/grid-baseline.jsonl lacks; regenerate the baseline from all three sweeps" >&2
  exit 1; }
