#!/usr/bin/env python3
"""Condense Google-Benchmark JSON outputs into one BENCH_pr.json summary.

Usage: bench_summary.py <dir-with-*.json> > BENCH_pr.json

Reads every ``*.json`` benchmark export in the directory (skipping files
that are not Google-Benchmark output) plus any ``fig07_real_workload.txt``
and ``fig_planner.txt`` text reports, and emits a single JSON document:
one compact row per benchmark, the fig13 thread-scaling ratios
(throughput at N workers over the single-thread baseline, per algorithm),
a ``planner_vs_best_static`` section condensing the fig_planner report
(planner mean time over the best/worst static choice, per query class,
plus the cost-model prediction accuracy — the numbers CI gates on), a
``mutation_overhead`` section condensing the fig_mutation export (query
latency at each delta-fill level over the empty-delta baseline, the
post-compaction ratio, compaction cost and insert throughput), a
``cold_start_speedup`` section condensing the fig_coldstart export
(prepare-from-scratch over mmap-load time — the snapshot persistence
gate, docs/PERSISTENCE.md), a ``sharding_scaling`` section condensing
the fig_sharding export (queries/s and p50/p95/p99 latency per
shard-count × thread-count configuration, plus the speedup of each
shard count over the single-shard baseline — the scatter-gather serving
gate, docs/SERVING.md), a ``query_algebra`` section condensing the
fig_algebra export (expression-evaluation time per OR-width × depth ×
cache-hit-rate shape and the memoized-over-cold speedup — the
expression-cache gate, docs/ALGEBRA.md), a ``compressed_decode`` section
condensing the fig08 export (the off/auto time ratio of the
``decode_kernel`` row pairs per field width plus the whole-query
simd=off/auto ratios — the SIMD-decode gate, docs/COMPRESSION.md), and —
when the directory has a ``scalar/`` subdirectory holding a second run
made with FSI_FORCE_SCALAR=1 — a ``simd_speedup`` section with the
per-benchmark scalar/simd time ratios, the number the SIMD kernel layer
exists to improve.  The CI bench-smoke job prints this to the job log and
uploads the raw exports as an artifact, so the perf trajectory of a
branch is one artifact download away.
"""

import json
import os
import re
import sys


# Shared row shape of the fig07 and fig_planner text tables:
# <algorithm> <number> <number> <percent>%
TABLE_ROW = re.compile(
    r"^(\w+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)%\s*$", re.MULTILINE)

PLANNER_METRIC = re.compile(
    r"^(planner_vs_\w+|predicted_within_2x)\s+([\d.]+)\s*$", re.MULTILINE)


def load_planner_text(directory):
    """The fig_planner report as one summary section (or None)."""
    path = os.path.join(directory, "fig_planner.txt")
    try:
        with open(path) as f:
            text = f.read()
    except OSError:
        return None
    section = {"mean_ms": {}, "vs_best_by_k": {}}
    for alg, mean_ms, worst_ms, win in TABLE_ROW.findall(text):
        section["mean_ms"][alg] = float(mean_ms)
    for key, value in PLANNER_METRIC.findall(text):
        if key == "planner_vs_best_static":
            section["vs_best_overall"] = float(value)
        elif key == "planner_vs_worst_static":
            section["vs_worst_overall"] = float(value)
        elif key == "predicted_within_2x":
            section["predicted_within_2x"] = float(value)
        elif key.startswith("planner_vs_best_k"):
            section["vs_best_by_k"][key[len("planner_vs_best_k"):]] = (
                float(value))
    if "vs_best_overall" not in section:
        return None
    return section


def load_fig07_text(directory):
    """Rows of the fig07 text report, as benchmark-like dicts."""
    path = os.path.join(directory, "fig07_real_workload.txt")
    rows = []
    try:
        with open(path) as f:
            text = f.read()
    except OSError:
        return rows
    for alg, normalized, mean_ms, win in TABLE_ROW.findall(text):
        rows.append({
            "name": "fig07/" + alg,
            "real_time": float(mean_ms),
            "time_unit": "ms",
            "normalized_to_merge": float(normalized),
            "win_share_percent": float(win),
        })
    return rows


def simd_speedup(directory, benchmarks):
    """scalar_time / simd_time per benchmark, from the scalar/ subdirectory.

    The bench-smoke job runs the same subset twice — once as built
    (CPU-dispatched SIMD kernels) into the artifact root, once with
    FSI_FORCE_SCALAR=1 into scalar/.  Ratios > 1 mean the vectorized
    kernels win.
    """
    scalar_dir = os.path.join(directory, "scalar")
    if not os.path.isdir(scalar_dir):
        return {}
    scalar_rows = []
    for data in load_exports(scalar_dir).values():
        scalar_rows.extend(data.get("benchmarks", []))
    scalar_rows.extend(load_fig07_text(scalar_dir))
    scalar_times = {
        b["name"]: b["real_time"]
        for b in scalar_rows
        if b.get("name") and b.get("real_time")
    }
    speedup = {}
    for bench in benchmarks:
        name = bench.get("name")
        simd_time = bench.get("real_time")
        scalar_time = scalar_times.get(name)
        if name and simd_time and scalar_time:
            speedup[name] = round(scalar_time / simd_time, 2)
    return speedup


def load_exports(directory):
    exports = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name == "BENCH_pr.json":
            continue
        path = os.path.join(directory, name)
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        # Require the full Google-Benchmark signature ("context" +
        # "benchmarks"), so a prior summary — which also carries a
        # "benchmarks" key — is never re-ingested and double-counted.
        if isinstance(data, dict) and "context" in data and "benchmarks" in data:
            exports[name] = data
    return exports


def row(bench):
    out = {
        "name": bench.get("name"),
        "real_time": bench.get("real_time"),
        "time_unit": bench.get("time_unit"),
    }
    for key in ("items_per_second", "result_size", "threads", "shards",
                "p50_us", "p95_us", "p99_us"):
        if key in bench:
            out[key] = bench[key]
    return out


def mutation_overhead(benchmarks):
    """Query-latency overhead of the mutable-set delta tier (fig_mutation).

    Ratios are latencies normalized to the fill:0 baseline — a freshly
    prepared mutable set with an empty delta.  ``overhead_vs_fill`` is the
    default ordered sink (fixup = two linear merges; CI gates on it);
    ``unordered_overhead_vs_fill`` is the .Unordered() sink, which pays a
    Bloom-gated screening pass over the whole result.
    ``post_compaction_ratio`` is the ordered query after Compact() folded
    a 10% delta back into the base; the mutability layer's contract is
    that it returns to ~1.0.  ``expr_and_overhead_vs_fill`` is the same
    conjunction run as ``Expr::And`` (no Expr cache), over its own fill:0
    baseline; ``expr_vs_flat_at_10`` divides its fill:10 latency by the
    flat query's — CI gates it (scripts/bench_gates.py), so the Expr path
    cannot fork off the flat executor again.

    Benchmark JSON names carry the registered label plus one trailing
    ``/<arg>`` component per Args() value, so all matching here is prefix
    based (e.g. ``mutation/query_vs_fill/fill:10/10/0``).
    """
    rows = [
        b for b in benchmarks
        if b.get("name", "").startswith("mutation/") and b.get("real_time")
    ]

    def find(prefix):
        for b in rows:
            name = b["name"]
            if name == prefix or name.startswith(prefix + "/"):
                return b
        return None

    def fill_curve(stem, baseline):
        pattern = re.compile(r"^" + re.escape(stem) + r"/fill:(\d+)(/|$)")
        curve = {}
        for b in rows:
            match = pattern.match(b["name"])
            if match and int(match.group(1)) > 0:
                curve[match.group(1)] = round(b["real_time"] / baseline, 2)
        return curve

    base = find("mutation/query_vs_fill/fill:0")
    if not base:
        return None
    baseline = base["real_time"]
    section = {
        "baseline_us": round(baseline, 3),
        "overhead_vs_fill": fill_curve("mutation/query_vs_fill", baseline),
    }
    ubase = find("mutation/query_vs_fill_unordered/fill:0")
    if ubase:
        section["unordered_baseline_us"] = round(ubase["real_time"], 3)
        section["unordered_overhead_vs_fill"] = fill_curve(
            "mutation/query_vs_fill_unordered", ubase["real_time"])
    ebase = find("mutation/expr_and_vs_fill/fill:0")
    if ebase:
        section["expr_and_baseline_us"] = round(ebase["real_time"], 3)
        section["expr_and_overhead_vs_fill"] = fill_curve(
            "mutation/expr_and_vs_fill", ebase["real_time"])
    expr10 = find("mutation/expr_and_vs_fill/fill:10")
    flat10 = find("mutation/query_vs_fill/fill:10")
    if expr10 and flat10:
        section["expr_vs_flat_at_10"] = round(
            expr10["real_time"] / flat10["real_time"], 2)
    post = find("mutation/post_compaction")
    if post:
        section["post_compaction_ratio"] = round(
            post["real_time"] / baseline, 2)
    compact_pattern = re.compile(r"^mutation/compact_cost/fill:(\d+)(/|$)")
    compact = {}
    for b in rows:
        match = compact_pattern.match(b["name"])
        if match:
            compact[match.group(1)] = round(b["real_time"], 3)
    if compact:
        section["compact_cost_ms"] = compact
    inserts = find("mutation/insert_throughput")
    if inserts and inserts.get("items_per_second"):
        section["inserts_per_second"] = round(inserts["items_per_second"], 1)
    return section


def cold_start_speedup(benchmarks):
    """prepare_ms / load_ms from the fig_coldstart export (or None).

    ``coldstart/prepare`` rebuilds every structure from raw lists;
    ``coldstart/load`` is Engine::LoadSnapshot mmap'ing the saved image.
    The ratio is the whole point of the persistence layer — CI gates it
    (scripts/bench_gates.py, docs/PERSISTENCE.md).  The ``mutable_*`` keys are the same
    pair over PrepareMutable sets (``coldstart/prepare_mutable``,
    ``coldstart/load_mutable``), when present; they are not gated.
    """
    def find(prefix):
        for b in benchmarks:
            name = b.get("name", "")
            if ((name == prefix or name.startswith(prefix + "/"))
                    and b.get("real_time")):
                return b
        return None

    prepare = find("coldstart/prepare")
    load = find("coldstart/load")
    if not prepare or not load:
        return None
    section = {
        "prepare_ms": round(prepare["real_time"], 2),
        "load_ms": round(load["real_time"], 2),
        "speedup": round(prepare["real_time"] / load["real_time"], 2),
    }
    counters = {k: load[k] for k in ("mapped_MiB", "sets") if k in load}
    section.update(counters)
    # The same pair over PrepareMutable sets: reported, not gated.
    prepare_mutable = find("coldstart/prepare_mutable")
    load_mutable = find("coldstart/load_mutable")
    if prepare_mutable and load_mutable:
        section["mutable_prepare_ms"] = round(prepare_mutable["real_time"], 2)
        section["mutable_load_ms"] = round(load_mutable["real_time"], 2)
        section["mutable_speedup"] = round(
            prepare_mutable["real_time"] / load_mutable["real_time"], 2)
    return section


def sharding_scaling(benchmarks):
    """The fig_sharding latency/throughput table, per query mix.

    Benchmark names are ``sharding/<mix>/shards:S/threads:T``; each row
    carries items_per_second plus p50/p95/p99 latency counters from the
    serving layer's ServeBatch.  ``speedup_vs_1_shard`` is the
    items_per_second ratio of each shard count over shards:1 at the same
    thread count — scatter-gather's per-query parallelism, the number CI
    gates for 8 shards (scripts/bench_gates.py, docs/SERVING.md).
    """
    pattern = re.compile(r"^sharding/([^/]+)/shards:(\d+)/threads:(\d+)")
    configs = {}  # mix -> {(shards, threads): bench}
    for bench in benchmarks:
        match = pattern.match(bench.get("name", ""))
        if not match or "items_per_second" not in bench:
            continue
        mix, shards, threads = (match.group(1), int(match.group(2)),
                                int(match.group(3)))
        configs.setdefault(mix, {})[(shards, threads)] = bench
    if not configs:
        return None
    section = {}
    for mix, by_config in sorted(configs.items()):
        table = {}
        speedups = {}
        for (shards, threads), bench in sorted(by_config.items()):
            key = "shards:%d/threads:%d" % (shards, threads)
            table[key] = {
                "queries_per_second": round(bench["items_per_second"], 1),
            }
            for counter in ("p50_us", "p95_us", "p99_us"):
                if counter in bench:
                    table[key][counter] = round(bench[counter], 1)
            base = by_config.get((1, threads))
            if base and base.get("items_per_second"):
                speedups[key] = round(
                    bench["items_per_second"] / base["items_per_second"], 2)
        entry = {"configs": table}
        if speedups:
            entry["speedup_vs_1_shard"] = speedups
        section[mix] = entry
    return section


def query_algebra(benchmarks):
    """The fig_algebra expression-evaluation table, by tree shape.

    Benchmark names are ``algebra/width:W/depth:D/hit:H`` where H is the
    controlled ExprCache hit rate (0, 50 or 100 percent).  For each
    (width, depth) shape the section records the per-hit-rate time and
    ``memo_speedup`` — the hit:0 time over the hit:100 time, i.e. how
    much cheaper re-evaluating a fully memoized tree is than a cold
    evaluation.  CI gates ``best_memo_speedup`` (scripts/bench_gates.py;
    docs/ALGEBRA.md, "Memoization").
    """
    pattern = re.compile(r"^algebra/width:(\d+)/depth:(\d+)/hit:(\d+)$")
    shapes = {}  # (width, depth) -> {hit: real_time}
    for bench in benchmarks:
        match = pattern.match(bench.get("name", ""))
        if not match or not bench.get("real_time"):
            continue
        width, depth, hit = match.groups()
        shapes.setdefault((width, depth), {})[hit] = bench["real_time"]
    if not shapes:
        return None
    section = {"configs": {}}
    best = 0.0
    for (width, depth), by_hit in sorted(shapes.items()):
        key = "width:%s/depth:%s" % (width, depth)
        entry = {
            "time_us_by_hit_pct": {h: round(t, 2)
                                   for h, t in sorted(by_hit.items())}
        }
        cold, hot = by_hit.get("0"), by_hit.get("100")
        if cold and hot:
            entry["memo_speedup"] = round(cold / hot, 2)
            best = max(best, entry["memo_speedup"])
        section["configs"][key] = entry
    if best:
        section["best_memo_speedup"] = best
    return section


def compressed_decode(benchmarks):
    """The fig08 SIMD-decode comparison, kernel-level and whole-query.

    ``kernel_speedup`` is the off/auto time ratio of the
    ``fig08/decode_kernel/w:W/simd:{auto,off}`` row pairs — the dispatched
    bit-unpacking kernels against the scalar reference over a flat ~1M-field
    buffer, per field width.  ``min_kernel_speedup`` is what CI gates on
    AVX2 runners (scripts/bench_gates.py, docs/COMPRESSION.md).
    ``query_speedup`` is the same ratio for the whole-query
    ``fig08/<alg>/n:N`` vs
    ``fig08/<alg>:simd=off/n:N`` pairs; those decode one ~8-element group
    at a time, where the kernel intentionally stays scalar, so values
    near 1.0 are expected — the column exists to catch the dispatched
    path *losing* end-to-end.
    """
    kernel_pattern = re.compile(r"^fig08/decode_kernel/w:(\d+)/simd:(auto|off)")
    query_pattern = re.compile(r"^fig08/([A-Za-z_]+?)(:simd=off)?/n:(\d+)")
    kernel = {}  # width -> {mode: real_time}
    queries = {}  # (alg, n) -> {mode: real_time}
    for bench in benchmarks:
        name = bench.get("name", "")
        time = bench.get("real_time")
        if not time:
            continue
        match = kernel_pattern.match(name)
        if match:
            kernel.setdefault(match.group(1), {})[match.group(2)] = time
            continue
        match = query_pattern.match(name)
        if match and match.group(1) != "decode_kernel":
            alg, off, n = match.group(1), match.group(2), match.group(3)
            queries.setdefault((alg, n), {})["off" if off else "auto"] = time
    if not kernel and not queries:
        return None
    section = {}
    if kernel:
        section["kernel_speedup"] = {
            "w:%s" % w: round(t["off"] / t["auto"], 2)
            for w, t in sorted(kernel.items(), key=lambda kv: int(kv[0]))
            if "off" in t and "auto" in t
        }
        if section["kernel_speedup"]:
            section["min_kernel_speedup"] = min(
                section["kernel_speedup"].values())
    query_speedup = {
        "%s/n:%s" % (alg, n): round(t["off"] / t["auto"], 2)
        for (alg, n), t in sorted(queries.items())
        if "off" in t and "auto" in t
    }
    if query_speedup:
        section["query_speedup"] = query_speedup
    return section


def fig13_scaling(benchmarks):
    """Per-algorithm queries/s by thread count and speedup vs 1 thread."""
    qps = {}  # algorithm -> {threads: items_per_second}
    pattern = re.compile(r"^fig13/([^/]+)/threads:(\d+)")
    for bench in benchmarks:
        match = pattern.match(bench.get("name", ""))
        if not match or "items_per_second" not in bench:
            continue
        alg, threads = match.group(1), int(match.group(2))
        qps.setdefault(alg, {})[threads] = bench["items_per_second"]
    scaling = {}
    for alg, by_threads in sorted(qps.items()):
        base = by_threads.get(1)
        entry = {
            "queries_per_second": {
                str(t): round(v, 1) for t, v in sorted(by_threads.items())
            }
        }
        if base:
            entry["speedup_vs_1_thread"] = {
                str(t): round(v / base, 2)
                for t, v in sorted(by_threads.items())
            }
        scaling[alg] = entry
    return scaling


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip())
    directory = sys.argv[1]
    exports = load_exports(directory)

    summary = {
        "commit": os.environ.get("GITHUB_SHA", "local"),
        "ref": os.environ.get("GITHUB_REF", ""),
        "sources": list(exports),
        "benchmarks": [],
    }
    all_benchmarks = []
    for name, data in exports.items():
        for bench in data.get("benchmarks", []):
            all_benchmarks.append(bench)
            summary["benchmarks"].append(dict(row(bench), file=name))
    fig07_rows = load_fig07_text(directory)
    if fig07_rows:
        summary["sources"].append("fig07_real_workload.txt")
    for bench in fig07_rows:
        all_benchmarks.append(bench)
        summary["benchmarks"].append(
            dict(bench, file="fig07_real_workload.txt"))

    scaling = fig13_scaling(all_benchmarks)
    if scaling:
        summary["fig13_thread_scaling"] = scaling

    sharding = sharding_scaling(all_benchmarks)
    if sharding:
        summary["sharding_scaling"] = sharding

    mutation = mutation_overhead(all_benchmarks)
    if mutation:
        summary["mutation_overhead"] = mutation

    coldstart = cold_start_speedup(all_benchmarks)
    if coldstart:
        summary["cold_start_speedup"] = coldstart

    algebra = query_algebra(all_benchmarks)
    if algebra:
        summary["query_algebra"] = algebra

    decode = compressed_decode(all_benchmarks)
    if decode:
        summary["compressed_decode"] = decode

    planner = load_planner_text(directory)
    if planner:
        summary["sources"].append("fig_planner.txt")
        summary["planner_vs_best_static"] = planner

    speedup = simd_speedup(directory, all_benchmarks)
    if speedup:
        summary["simd_speedup"] = speedup

    json.dump(summary, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
