#!/usr/bin/env bash
# distributed-smoke.sh — end-to-end chaos smoke for the fleet: a coordinator
# and two workers on localhost, with one worker SIGKILLed mid-sweep. Asserts
# the lease/dedupe/journal contract from the outside, across real process
# boundaries:
#
#   1. the sweep converges: executed + cached == expanded trial total;
#   2. the store holds exactly one record per TrialKey (no duplicate
#      completions survive, even with a killed worker's lease re-issued);
#   3. a coordinator restarted over the same store executes 0 trials
#      (resume is complete: everything is served from the journal);
#   4. a heterogeneous fleet (capacity-2 + capacity-16 workers) converges
#      with zero duplicate keys and the high-capacity worker's first claim
#      is the costliest (8-thread) trial — capacity-aware LPT granting,
#      observed from outside through the claim journal;
#   5. a coordinator with no workers at all drains the sweep itself after
#      the -local-grace window (degraded-local mode);
#   6. a sweep of cheap trials is leased in chunks: the coordinator serves
#      fewer completion RPCs than it has trials, and the store still holds
#      every key exactly once.
#
# Usage: scripts/distributed-smoke.sh [workdir]
# Env:   OPS=4000   per-thread op budget of each trial (keep trials long
#                   enough that the SIGKILL lands mid-sweep)
#        RACE=1     build the binary with -race (slower; CI runs this once)
set -euo pipefail
cd "$(dirname "$0")/.."

work="${1:-$(mktemp -d)}"
ops="${OPS:-4000}"
port=7741
store="$work/sweep.jsonl"
mkdir -p "$work"

build_flags=()
if [ "${RACE:-0}" = "1" ]; then
  build_flags+=(-race)
  echo "distributed-smoke: building with -race"
fi

echo "distributed-smoke: workdir $work"
go build "${build_flags[@]}" -o "$work/epochgrid" ./cmd/epochgrid

# Sweep axes: 2 reclaimers x 2 thread counts x 3 trials = 12 trials. A short
# lease TTL keeps the killed worker's trial from stalling the sweep.
sweep_flags=(-reclaimers debra,hp -threads 2,4 -trials 3 -ops "$ops" -keyrange 4096)

"$work/epochgrid" -serve "127.0.0.1:$port" -store "$store" "${sweep_flags[@]}" \
  -lease-ttl 5s -local-grace 0 -format json -out "$work/sweep.json" 2>"$work/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT

# Wait for the coordinator to listen.
for _ in $(seq 1 50); do
  if curl -s -o /dev/null "http://127.0.0.1:$port/v1/status"; then break; fi
  sleep 0.1
done

"$work/epochgrid" -worker "http://127.0.0.1:$port" -worker-name victim \
  -spool "$work/victim.spool.jsonl" -progress 2>"$work/victim.log" &
victim_pid=$!
"$work/epochgrid" -worker "http://127.0.0.1:$port" -worker-name survivor \
  -spool "$work/survivor.spool.jsonl" 2>"$work/survivor.log" &
survivor_pid=$!

# SIGKILL the victim once it holds a lease (its claim is journaled in the
# store), so the kill provably lands on an in-flight trial.
for _ in $(seq 1 100); do
  if grep -q '"kind":"claim".*"worker":"victim"' "$store" 2>/dev/null ||
     grep -q '"worker":"victim"' "$store" 2>/dev/null; then break; fi
  sleep 0.1
done
kill -9 "$victim_pid" 2>/dev/null || true
echo "distributed-smoke: SIGKILLed victim worker (pid $victim_pid)"

wait "$survivor_pid" || { echo "distributed-smoke: survivor worker failed" >&2; cat "$work/survivor.log" >&2; exit 1; }
wait "$serve_pid" || { echo "distributed-smoke: coordinator failed" >&2; cat "$work/serve.log" >&2; exit 1; }
trap - EXIT

grep '^grid:' "$work/serve.log"
grep '^fleet:' "$work/serve.log" || true

# Gate 1: convergence — executed + cached == expanded total, nothing lost.
read -r total executed cached <<EOF2
$(awk '/^grid:/ {
  for (i = 1; i <= NF; i++) {
    if ($i ~ /^trials=/)   { split($i, a, "="); t = a[2] }
    if ($i ~ /^executed=/) { split($i, a, "="); e = a[2] }
    if ($i ~ /^cached=/)   { split($i, a, "="); c = a[2] }
  }
  print t, e, c
}' "$work/serve.log")
EOF2
if [ "$total" != "12" ] || [ $((executed + cached)) -ne "$total" ]; then
  echo "distributed-smoke: FAIL convergence: total=$total executed=$executed cached=$cached" >&2
  exit 1
fi
echo "distributed-smoke: convergence gate passed (executed=$executed + cached=$cached == $total)"

# Gate 2: no duplicate TrialKeys among result records (claims are journal
# lines and excluded by kind).
dups="$(python3 - "$store" <<'EOF'
import json, sys
from collections import Counter
keys = Counter()
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn line from the SIGKILL: load-time semantics skip it
        if rec.get("kind"):
            continue
        keys[rec["key"]] += 1
dups = {k: n for k, n in keys.items() if n > 1}
print(len(dups))
if len(keys) != 12:
    print(f"expected 12 distinct trial keys, found {len(keys)}", file=sys.stderr)
    sys.exit(1)
EOF
)"
if [ "$dups" != "0" ]; then
  echo "distributed-smoke: FAIL dedupe: $dups duplicate TrialKeys in the store" >&2
  exit 1
fi
echo "distributed-smoke: dedupe gate passed (12 distinct keys, 0 duplicates)"

# Gate 3: a restarted coordinator resumes with zero executions — one idle
# worker attached so the run exercises the lease path too.
"$work/epochgrid" -serve "127.0.0.1:$port" -store "$store" "${sweep_flags[@]}" \
  -local-grace 0 -format json -out "$work/resume.json" 2>"$work/resume.log" &
resume_pid=$!
"$work/epochgrid" -worker "http://127.0.0.1:$port" -worker-name resumer 2>"$work/resumer.log" || true
wait "$resume_pid" || { echo "distributed-smoke: resume coordinator failed" >&2; cat "$work/resume.log" >&2; exit 1; }
grep '^grid:' "$work/resume.log"
if ! grep -q 'executed=0 cached=12' "$work/resume.log"; then
  echo "distributed-smoke: FAIL resume: restarted coordinator re-executed trials" >&2
  exit 1
fi
echo "distributed-smoke: resume gate passed (restart executed 0 of 12)"

# --- Phase 4: heterogeneous fleet ------------------------------------------
# A capacity-2 worker and a capacity-16 worker share a sweep mixing 1- and
# 8-thread trials. Capacity-aware LPT granting means the high-capacity
# worker's first claim must be an 8-thread trial (the costliest pending) and
# the low-capacity worker's first claim must be a 1-thread one (the costliest
# that fits). Later fallback grants (capacity is advisory) are allowed — the
# first claims are the deterministic part of the contract.
het_port=7742
het_store="$work/hetero.jsonl"
het_flags=(-reclaimers debra -threads 1,8 -trials 3 -ops "$ops" -keyrange 4096)

"$work/epochgrid" -serve "127.0.0.1:$het_port" -store "$het_store" "${het_flags[@]}" \
  -lease-ttl 5s -local-grace 0 -format json -out "$work/hetero.json" 2>"$work/hetero-serve.log" &
het_pid=$!
trap 'kill "$het_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  if curl -s -o /dev/null "http://127.0.0.1:$het_port/v1/status"; then break; fi
  sleep 0.1
done

"$work/epochgrid" -worker "http://127.0.0.1:$het_port" -worker-name hicap \
  -capacity 16 2>"$work/hicap.log" &
hicap_pid=$!
"$work/epochgrid" -worker "http://127.0.0.1:$het_port" -worker-name locap \
  -capacity 2 2>"$work/locap.log" &
locap_pid=$!

wait "$hicap_pid" || { echo "distributed-smoke: hicap worker failed" >&2; cat "$work/hicap.log" >&2; exit 1; }
wait "$locap_pid" || { echo "distributed-smoke: locap worker failed" >&2; cat "$work/locap.log" >&2; exit 1; }
wait "$het_pid" || { echo "distributed-smoke: hetero coordinator failed" >&2; cat "$work/hetero-serve.log" >&2; exit 1; }
trap - EXIT
grep '^grid:' "$work/hetero-serve.log"

# Convergence: 1 reclaimer x 2 thread counts x 3 trials = 6, all executed.
if ! grep -qE '^grid: .*trials=6 .*executed=6' "$work/hetero-serve.log"; then
  echo "distributed-smoke: FAIL hetero convergence" >&2
  cat "$work/hetero-serve.log" >&2
  exit 1
fi

# Dedupe + capacity-aware first claims, read from the journaled store.
python3 - "$het_store" <<'EOF'
import json, sys
from collections import Counter

key_threads = {}
first_claim = {}
keys = Counter()
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if rec.get("kind") == "claim":
            first_claim.setdefault(rec["worker"], rec["key"])
            continue
        if rec.get("kind"):
            continue
        keys[rec["key"]] += 1
        key_threads[rec["key"]] = rec["config"]["Threads"]

dups = {k: n for k, n in keys.items() if n > 1}
if dups or len(keys) != 6:
    print(f"hetero store: {len(keys)} distinct keys, dups={dups}", file=sys.stderr)
    sys.exit(1)
for worker, want in (("hicap", 8), ("locap", 1)):
    key = first_claim.get(worker)
    got = key_threads.get(key)
    if got != want:
        print(f"hetero: {worker}'s first claim is a {got}-thread trial, want {want}",
              file=sys.stderr)
        sys.exit(1)
print("hetero claims: hicap first claimed 8 threads, locap first claimed 1 thread")
EOF
echo "distributed-smoke: heterogeneous gate passed (6 keys, 0 dups, capacity-aware first claims)"

# --- Phase 5: degraded-local drain -----------------------------------------
# A coordinator with no workers must not hang: after -local-grace with zero
# leases granted it drains the sweep in-process through the same lease
# machinery, and the run converges.
local_store="$work/local.jsonl"
"$work/epochgrid" -serve "127.0.0.1:7743" -store "$local_store" \
  -reclaimers debra -threads 2 -trials 2 -ops "$ops" -keyrange 4096 \
  -local-grace 1s -format json -out "$work/local.json" 2>"$work/local-serve.log"
grep '^grid:' "$work/local-serve.log"
if ! grep -q 'draining locally' "$work/local-serve.log"; then
  echo "distributed-smoke: FAIL degraded-local: no local drain logged" >&2
  cat "$work/local-serve.log" >&2
  exit 1
fi
if ! grep -qE '^grid: .*trials=2 .*executed=2' "$work/local-serve.log"; then
  echo "distributed-smoke: FAIL degraded-local convergence" >&2
  cat "$work/local-serve.log" >&2
  exit 1
fi
echo "distributed-smoke: degraded-local gate passed (workerless sweep drained in-process)"

# --- Phase 6: cheap trials share round trips --------------------------------
# 2 configurations x 16 seeds of one-thread trials that take milliseconds.
# Each configuration's first seed runs alone and measures it; from then on a
# lease is filled up to the coordinator's quantum and reported in one
# completion, so the completion RPCs it served must number fewer than the
# trials — while the convergence and one-record-per-key gates stay what they
# are for every other phase.
cheap_port=7744
cheap_store="$work/cheap.jsonl"
"$work/epochgrid" -serve "127.0.0.1:$cheap_port" -store "$cheap_store" \
  -reclaimers debra,hp -threads 1 -trials 16 -ops 200 -keyrange 256 \
  -lease-ttl 5s -local-grace 0 -format json -out "$work/cheap.json" 2>"$work/cheap-serve.log" &
cheap_pid=$!
trap 'kill "$cheap_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  if curl -s -o /dev/null "http://127.0.0.1:$cheap_port/v1/status"; then break; fi
  sleep 0.1
done
worker_pids=()
for name in cheap-a cheap-b; do
  "$work/epochgrid" -worker "http://127.0.0.1:$cheap_port" -worker-name "$name" \
    -capacity 1 -spool none 2>"$work/$name.log" &
  worker_pids+=($!)
done
for pid in "${worker_pids[@]}"; do
  wait "$pid" || { echo "distributed-smoke: cheap-trial worker failed" >&2; cat "$work"/cheap-[ab].log >&2; exit 1; }
done
wait "$cheap_pid" || { echo "distributed-smoke: cheap-trial coordinator failed" >&2; cat "$work/cheap-serve.log" >&2; exit 1; }
trap - EXIT
grep -E '^(grid|fleet): ' "$work/cheap-serve.log"
if ! grep -qE '^grid: .*trials=32 .*executed=32' "$work/cheap-serve.log"; then
  echo "distributed-smoke: FAIL cheap-trial convergence" >&2
  cat "$work/cheap-serve.log" >&2
  exit 1
fi
rpcs="$(sed -n 's/^fleet: .*completion rpcs=\([0-9]*\).*/\1/p' "$work/cheap-serve.log")"
if [ -z "$rpcs" ] || [ "$rpcs" -ge 32 ]; then
  echo "distributed-smoke: FAIL chunking: ${rpcs:-no} completion RPCs for 32 cheap trials" >&2
  exit 1
fi
python3 - "$cheap_store" <<'EOF'
import json, sys
from collections import Counter
keys = Counter()
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        if not rec.get("kind"):
            keys[rec["key"]] += 1
dups = {k: n for k, n in keys.items() if n > 1}
if dups or len(keys) != 32:
    print(f"cheap store: {len(keys)} distinct keys, dups={dups}", file=sys.stderr)
    sys.exit(1)
EOF
echo "distributed-smoke: chunk gate passed ($rpcs completion RPCs for 32 trials, 32 keys, 0 dups)"
echo "distributed-smoke: all gates passed"
