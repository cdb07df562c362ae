#!/usr/bin/env python3
"""The CI perf gates: one declarative table, its evaluator, and its docs.

Usage:
  bench_gates.py check BENCH_pr.json      # print every gate's value and
                                          # verdict; exit 1 if any fails
  bench_gates.py table                    # print the Markdown gate table
  bench_gates.py check-doc BENCHMARKS.md  # exit 1 unless the doc holds
                                          # exactly the printed table

Each gate reads one number out of ``BENCH_pr.json`` (written by
scripts/bench_summary.py) and compares it with a fixed threshold.  This
file is the only place a threshold is written: the bench-smoke CI job runs
``check``, and the table in docs/BENCHMARKS.md ("The perf gates") is the
output of ``table``, which the doc-links job keeps in sync through
``check-doc``.

A gate path is a dot-separated key path into the summary.  A ``*`` in a
segment matches any key (shell-style, so ``shards:8/*`` matches every
8-shard configuration); a gate whose path matches several values reads
their maximum.  ``show`` paths are printed next to the verdict for
context and never gated.
"""

import json
import operator
import os
import sys
from dataclasses import dataclass
from fnmatch import fnmatchcase


def _fewer_than_4_threads():
    return (os.cpu_count() or 1) < 4


def _no_avx2():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            return "avx2" not in f.read()
    except OSError:
        return True


# Skip conditions by the name the table and the docs print.
SKIPS = {
    "fewer than 4 hardware threads": _fewer_than_4_threads,
    "no AVX2": _no_avx2,
}

OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}


@dataclass(frozen=True)
class Gate:
    name: str
    path: str
    op: str
    threshold: float
    why: str
    typical: str
    skip: str = ""  # a SKIPS key, or "" for always enforced
    show: tuple = ()


GATES = [
    Gate("Planner vs best static",
         "planner_vs_best_static.vs_best_overall", "<=", 1.15,
         "planner mean time over the best static algorithm's on the "
         "fixed-seed fig07-style workload (docs/PLANNER.md)",
         "0.89–0.99"),
    Gate("Planner prediction accuracy",
         "planner_vs_best_static.predicted_within_2x", ">=", 0.85,
         "share of queries predicted within 2x of the measured time; "
         "shared runners time microsecond queries noisily, while a broken "
         "cost model scores near 0",
         "~0.99"),
    Gate("Mutation overhead",
         "mutation_overhead.overhead_vs_fill.10", "<", 2.0,
         "ordered query with a 10% delta over the empty-delta baseline",
         "1.4"),
    Gate("Post-compaction ratio",
         "mutation_overhead.post_compaction_ratio", "<=", 1.3,
         "compaction restores the fresh query cost (slack for "
         "shared-runner noise)",
         "~1.0"),
    Gate("Expr vs flat conjunction",
         "mutation_overhead.expr_vs_flat_at_10", "<=", 1.5,
         "the same conjunction as an Expr::And at 10% delta fill runs the "
         "flat query's conjunction executor",
         "~1.04"),
    Gate("Cold-start speedup",
         "cold_start_speedup.speedup", ">=", 10.0,
         "rebuild over mmap-load of a saved engine image, CRC pass "
         "included (docs/PERSISTENCE.md)",
         "24",
         show=("cold_start_speedup.prepare_ms", "cold_start_speedup.load_ms")),
    Gate("Sharded scatter-gather",
         "sharding_scaling.*.speedup_vs_1_shard.shards:8/*", ">=", 3.0,
         "best 8-shard speedup over one shard at equal thread count "
         "(docs/SERVING.md); scatter parallelism needs cores to run on",
         "—",
         skip="fewer than 4 hardware threads",
         show=("sharding_scaling.*.configs.*.p99_us",)),
    Gate("Expression memoization",
         "query_algebra.best_memo_speedup", ">=", 5.0,
         "cold over fully memoized re-evaluation, best tree shape "
         "(docs/ALGEBRA.md)",
         "50–100"),
    Gate("SIMD decode kernels",
         "compressed_decode.min_kernel_speedup", ">=", 1.5,
         "scalar over dispatched bit-unpacking of a flat ~1M-field buffer, "
         "worst width (docs/COMPRESSION.md); whole queries are not gated",
         "1.6–2.0",
         skip="no AVX2",
         show=("compressed_decode.kernel_speedup.*",
               "compressed_decode.query_speedup.*")),
]


def resolve(summary, path):
    """Every (concrete path, value) the key path matches, in file order."""
    matches = [("", summary)]
    for segment in path.split("."):
        found = []
        for prefix, node in matches:
            if not isinstance(node, dict):
                continue
            for key, value in node.items():
                if fnmatchcase(key, segment):
                    found.append((f"{prefix}.{key}" if prefix else key, value))
        matches = found
    return matches


def check(summary_path):
    with open(summary_path, encoding="utf-8") as f:
        summary = json.load(f)
    failed = 0
    for gate in GATES:
        numbers = [(where, v) for where, v in resolve(summary, gate.path)
                   if isinstance(v, (int, float))]
        if not numbers:
            print(f"FAIL  {gate.name}: {gate.path} missing from {summary_path}")
            failed += 1
            continue
        where, value = max(numbers, key=lambda match: match[1])
        for show in gate.show:
            for concrete, shown in resolve(summary, show):
                print(f"      {concrete} = {shown}")
        at = f" at {where}" if len(numbers) > 1 else ""
        measured = f"{gate.path} = {value:.4g}{at} (gate: {gate.op} {gate.threshold:g})"
        if gate.skip and SKIPS[gate.skip]():
            print(f"SKIP  {gate.name}: {measured}; {gate.skip}")
        elif OPS[gate.op](value, gate.threshold):
            print(f"PASS  {gate.name}: {measured}")
        else:
            print(f"FAIL  {gate.name}: {measured}")
            failed += 1
    if failed:
        sys.exit(f"{failed} perf gate(s) failed")


def table():
    lines = [
        "| Gate | `BENCH_pr.json` path | Check | Skipped when | Why | Typical |",
        "|---|---|---|---|---|---|",
    ]
    for gate in GATES:
        lines.append(
            f"| {gate.name} | `{gate.path}` | {gate.op} {gate.threshold:g} "
            f"| {gate.skip or '—'} | {gate.why} | {gate.typical} |")
    return "\n".join(lines) + "\n"


BEGIN = "<!-- perf-gates: generated by scripts/bench_gates.py table -->\n"
END = "<!-- perf-gates: end -->\n"


def check_doc(doc_path):
    with open(doc_path, encoding="utf-8") as f:
        text = f.read()
    start = text.find(BEGIN)
    stop = text.find(END)
    if start < 0 or stop < start:
        sys.exit(f"{doc_path}: perf-gate table markers missing")
    if text[start + len(BEGIN):stop] != table():
        sys.exit(f"{doc_path}: perf-gate table differs from "
                 "`scripts/bench_gates.py table`; paste its output between "
                 "the markers")
    print(f"{doc_path}: perf-gate table OK ({len(GATES)} gates)")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "check":
        check(sys.argv[2])
    elif len(sys.argv) == 2 and sys.argv[1] == "table":
        sys.stdout.write(table())
    elif len(sys.argv) == 3 and sys.argv[1] == "check-doc":
        check_doc(sys.argv[2])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
