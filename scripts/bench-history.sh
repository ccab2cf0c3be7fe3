#!/usr/bin/env bash
# bench-history.sh — render the repo's perf trajectory across PRs into
# BENCH_HISTORY.md: one row per BENCH_<n>.json artifact, tracking the numbers
# the gates care about — grid throughput (the paper scenario's mean ops/s),
# recording overhead (pct_host, paired ratio), the open-system stalled p999
# tail, the per-layer budgets (fleet lease, ds update), what a second P buys
# the update trial and what a trial costs outside its window. Artifacts
# predate some metrics (recording landed in PR 6, latency in PR 8); missing
# cells render as "—" rather than faking history.
#
# Host metadata rides along per row because a throughput delta between PRs
# means nothing if the toolchain or core count moved underneath it.
#
# Usage: scripts/bench-history.sh [output.md]   (default BENCH_HISTORY.md)
# Runs automatically at the end of scripts/bench-json.sh, so the history
# regenerates whenever a new artifact is recorded.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_HISTORY.md}"

python3 - "$out" <<'EOF'
import glob, json, re, sys

out = sys.argv[1]

def fmt_ops(v):
    if v is None:
        return "—"
    if v >= 1e6:
        return f"{v/1e6:.2f}M"
    if v >= 1e3:
        return f"{v/1e3:.0f}k"
    return f"{v:.0f}"

rows = []
for path in sorted(glob.glob("BENCH_*.json"),
                   key=lambda p: int(re.search(r"BENCH_(\d+)\.json", p).group(1))):
    pr = int(re.search(r"BENCH_(\d+)\.json", path).group(1))
    with open(path) as f:
        d = json.load(f)

    # Grid throughput: the paper scenario's debra row is present in every
    # artifact since the grid landed — the stable cross-PR comparator.
    paper = None
    for s in d.get("grid", {}).get("summaries", []):
        if s.get("scenario") == "paper" and s.get("reclaimer") == "debra":
            paper = s.get("mean_ops")
            break

    rec = d.get("recording") or {}
    recorded = (rec.get("recorded") or {}).get("simops_per_s")
    pct_host = rec.get("paired_pct_host")
    ratio = rec.get("paired_ratio_pct")

    lat = d.get("latency") or {}
    p999_debra = (lat.get("debra") or {}).get("stalled_p999_ms")
    p999_hp = (lat.get("hp") or {}).get("stalled_p999_ms")

    mk = d.get("makespan") or {}
    mk_ratio = (mk.get("parallel4") or {}).get("ratio")

    # Fleet grant cost at two backlog sizes: equal figures are the point.
    lease = {}
    for b in d.get("benchmarks", []):
        m = re.match(r"BenchmarkCoordinatorLease/pending=(\d+)", b.get("name", ""))
        if m:
            lease[int(m.group(1))] = b.get("metrics", {}).get("ns/op")

    # The ds layer's budget: host time and host bytes of one ABtree update.
    ds_update = "—"
    for b in d.get("benchmarks", []):
        if re.match(r"BenchmarkABTreeUpdate(-\d+)?$", b.get("name", "")):
            m = b.get("metrics", {})
            ds_update = f"{m.get('ns/op', 0):.0f} · {m.get('B/op', 0):.0f}"

    # The update trial on two Ps against one: throughput and CPU per op.
    scale = {}
    for b in d.get("benchmarks", []):
        m = re.match(r"BenchmarkUpdateScaling/procs=(\d+)(-\d+)?$", b.get("name", ""))
        if m:
            scale[int(m.group(1))] = b.get("metrics", {})
    scaling = "—"
    if 1 in scale and 2 in scale:
        scaling = (f"{scale[2]['simops/s'] / scale[1]['simops/s']:.2f}× · "
                   f"{scale[1]['cpu-ns/op']:.0f} → {scale[2]['cpu-ns/op']:.0f}")

    # What a trial costs outside its window, for the benchmark's three
    # trial shapes.
    setup = {}
    for b in d.get("benchmarks", []):
        m = re.match(r"BenchmarkTrialSetup/(\w+?)(-\d+)?$", b.get("name", ""))
        if m:
            setup[m.group(1)] = b.get("metrics", {}).get("µs/trial")
    setup_cell = " / ".join(f"{setup[k]:.0f}" for k in ("sweep1t", "update8t", "readhazard8t")
                            if setup.get(k) is not None) or "—"

    host = d.get("host") or {}
    hostinfo = "—"
    if host:
        hostinfo = f"{host.get('go', '?')}/{host.get('gomaxprocs', '?')}cpu"

    rows.append({
        "pr": pr,
        "paper_ops": fmt_ops(paper),
        "recorded_ops": fmt_ops(recorded),
        "pct_host": f"{pct_host}" if pct_host is not None else "—",
        "ratio": f"{ratio}%" if ratio is not None else "—",
        "p999_debra": f"{p999_debra:.2f}" if p999_debra is not None else "—",
        "p999_hp": f"{p999_hp:.2f}" if p999_hp is not None else "—",
        "makespan": f"{mk_ratio:.2f}x" if mk_ratio is not None else "—",
        "lease": " / ".join(f"{lease[k]:.0f}" for k in sorted(lease)) or "—",
        "ds_update": ds_update,
        "scaling": scaling,
        "setup": setup_cell,
        "host": hostinfo,
    })

if not rows:
    print("bench-history: no BENCH_*.json artifacts found", file=sys.stderr)
    sys.exit(1)

with open(out, "w") as f:
    f.write("# Benchmark trajectory\n\n")
    f.write("Generated by `scripts/bench-history.sh` from the `BENCH_<pr>.json` "
            "artifacts (one per perf-relevant PR, recorded by "
            "`scripts/bench-json.sh`). Numbers come from shared CI-class "
            "machines — compare trends and ratios, not absolute ops/s, and "
            "check the host column before blaming a delta on code. \"—\" "
            "means the artifact predates that metric.\n\n")
    f.write("| PR | grid paper/debra ops/s | recorded simops/s | rec pct_host | rec ratio | stalled p999 debra (ms) | stalled p999 hp (ms) | makespan gain | fleet lease ns/op | ds update ns/op · B/op | 2P/1P throughput · cpu-ns/op | setup µs/trial | host |\n")
    f.write("|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|:---|\n")
    for r in rows:
        f.write(f"| {r['pr']} | {r['paper_ops']} | {r['recorded_ops']} | "
                f"{r['pct_host']} | {r['ratio']} | {r['p999_debra']} | "
                f"{r['p999_hp']} | {r['makespan']} | {r['lease']} | "
                f"{r['ds_update']} | {r['scaling']} | {r['setup']} | {r['host']} |\n")
    f.write("\nColumn notes:\n\n")
    f.write("- **grid paper/debra ops/s** — mean throughput of the paper "
            "scenario under the debra reclaimer in the grid smoke sweep; the "
            "one configuration present in every artifact since PR 3.\n")
    f.write("- **recorded simops/s, rec pct_host, rec ratio** — the recording "
            "pipeline's cost: recorded-trial throughput, its self-reported "
            "host overhead (gate: < 2%), and the paired recorded/unrecorded "
            "throughput ratio (gate: >= 95%).\n")
    f.write("- **stalled p999** — open-system modeled tail latency under a "
            "stalled reader, per reclaimer family; the unbounded scheme "
            "(debra) should sit at or above the bounded one (hp).\n")
    f.write("- **makespan gain** — cost-ordered (LPT) dispatch vs "
            "expansion-order dispatch on the heterogeneous synthetic sweep "
            "at parallel=4 (gate: >= 1.25x).\n")
    f.write("- **fleet lease ns/op** — `BenchmarkCoordinatorLease`: one "
            "coordinator grant against a standing backlog of 768 / 6144 "
            "pending trials; the two should read the same, since a grant "
            "costs one estimate per configuration, not per pending trial.\n")
    f.write("- **ds update ns/op · B/op** — `BenchmarkABTreeUpdate` "
            "(`internal/ds`): host time and Go heap bytes of one ABtree "
            "insert or delete on jemalloc × debra, one thread, 2^15 keys. "
            "About half the operations succeed and each success copies one "
            "leaf at the size class of the keys it holds (~107 bytes on "
            "average; a full-width 160 until PR 15), so ~54 B/op is the "
            "floor of this layout.\n")
    f.write("- **2P/1P throughput · cpu-ns/op** — `BenchmarkUpdateScaling` "
            "(root package): the update trial (abtree × debra, 8 simulated "
            "threads, fixed op count) at GOMAXPROCS 2 against 1: the ratio of "
            "simops/s, then process CPU per simulated op at 1 P → 2 P. A "
            "ratio above 1 with CPU per op about level is the aim; CPU per "
            "op doubling is cross-core cache-line traffic. \"—\" on 1-cpu "
            "hosts, where the 2 P run is skipped.\n")
    f.write("- **setup µs/trial** — `BenchmarkTrialSetup` (`internal/bench`): "
            "construction, prefill and teardown of one trial with no window "
            "in between, as `bench.RunTrial` performs them (allocator cost "
            "table suspended), for the repository benchmark's three trial "
            "shapes: a one-thread 512-key sweep trial / the 8-thread 2^15-key "
            "abtree × debra update trial / the occtree × hp read-mostly "
            "one.\n")

print(f"wrote {out} ({len(rows)} artifacts)")
EOF
