"""``suite``: the paper's Fig 5 evaluation, one fresh process per op.

Closed loop, one op at a time.  Each op is ``python -m repro bench
--jobs 1 --json --seed S`` with a fresh ``S`` drawn from the workload
seed: 16 kernels x O3/SLP/LSLP/SN-SLP, compiled, simulated and checked
against O3 — the way a user runs it.  The fresh process rules out
memoisation across ops that a one-shot user would never see, so CLI
import, kernel build/inputs and simulate carry most of the time.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from typing import Dict, List, Tuple

from common import (
    CONFIGS,
    BenchmarkError,
    add_counters,
    children_rss_mb,
    compare_counts,
    fresh_seconds,
    geomean,
    guarded,
    metric,
    run_child,
    summarize_latencies,
)

SETUP_REPEATS = 7
#: about 30 ops a run: too few for any percentile above the median
TAIL_Q = 50
OP_TIMEOUT_S = 120.0


def bench_argv(seed: int) -> List[str]:
    return ["-m", "repro", "bench", "--jobs", "1", "--json", "--seed", str(seed)]


def check_bench_doc(doc: Dict, kernels: List[str]) -> Tuple[List[str], Dict[str, float]]:
    """Check one ``repro bench --json`` document.

    Every (kernel, config) pair of the suite must be present exactly once
    and carry ``correct: true``.  Returns (problems, counts), where the
    counts are the op's deterministic figures: geomean speedups over O3
    and the summed program counters.
    """
    problems: List[str] = []
    seen: Dict[Tuple[str, str], Dict] = {}
    for row in doc.get("runs", []):
        key = (row.get("kernel"), row.get("config"))
        if key in seen:
            problems.append(f"duplicate pair {key}")
        seen[key] = row
        if row.get("correct") is not True:
            problems.append(f"pair {key} is not correct")
    missing = [(k, c) for k in kernels for c in CONFIGS if (k, c) not in seen]
    counts: Dict[str, float] = {}
    if missing:
        problems.append(f"missing pairs {missing[:4]}")
        return problems, counts
    for config, name in (("SN-SLP", "snslp_geomean_speedup"), ("LSLP", "lslp_geomean_speedup")):
        counts[name] = geomean([seen[(k, config)]["speedup"] for k in kernels])
    for row in seen.values():
        add_counters(counts, row.get("counters", {}))
    return problems, counts


def self_test(kernels: List[str]) -> None:
    """Prove the checker rejects a wrong output before trusting it."""
    good = {"runs": [
        {"kernel": k, "config": c, "correct": True, "speedup": 1.0, "counters": {}}
        for k in kernels for c in CONFIGS
    ]}
    broken = json.loads(json.dumps(good))
    broken["runs"][len(broken["runs"]) // 2]["correct"] = False
    dropped = json.loads(json.dumps(good))
    dropped["runs"].pop()
    if (check_bench_doc(good, kernels)[0] or not check_bench_doc(broken, kernels)[0]
            or not check_bench_doc(dropped, kernels)[0]):
        raise BenchmarkError("the suite checker misjudged a constructed document")


def run_op(seed: int, kernels: List[str]) -> Tuple[float, List[str], Dict[str, float]]:
    code, out, elapsed = run_child(bench_argv(seed), OP_TIMEOUT_S)
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return elapsed, [f"seed {seed}: exit code {code}, bad JSON ({exc})"], {}
    problems, counts = check_bench_doc(doc, kernels)
    if code != 0:
        problems.append(f"exit code {code}")
    return elapsed, [f"seed {seed}: {p}" for p in problems], counts


def run(seed: int, seconds: float) -> Dict:
    from repro.kernels.suite import all_kernels

    kernels = [k.name for k in all_kernels()]
    rng = random.Random(seed)
    setup = fresh_seconds(["-m", "repro", "--help"], SETUP_REPEATS)

    # Warm-up op: byte-compiles the sources once, as an installed
    # package would be; its figures are the ones every op must repeat.
    _, warm_problems, reference_counts = run_op(rng.getrandbits(31), kernels)
    self_test(kernels)

    latencies: List[float] = []
    failures: List[str] = []
    drift: List[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op_seed = rng.getrandbits(31)
        elapsed, problems, counts = run_op(op_seed, kernels)
        attempted += 1
        latencies.append(elapsed)
        if problems:
            failed += 1
            failures.extend(problems)
        # The suite's counts do not depend on the input seed: every op
        # must repeat the warm-up op's figures exactly.
        reference_counts = reference_counts or counts
        drift.extend(compare_counts(f"seed {op_seed}", guarded(reference_counts), guarded(counts)))
    wall = time.perf_counter() - start
    if not reference_counts:
        raise BenchmarkError(f"no op produced a complete document: {failures[:3]}")
    ok = attempted - failed
    lat = summarize_latencies(latencies, TAIL_Q)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": warm_problems + failures,
        "drift": drift,
        "counts": guarded(reference_counts),
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "ops_per_s": metric(ok / wall, "1/s"),
            "op_p50_ms": metric(lat["p50_ms"], "ms"),
            "op_tail_ms": metric(lat["tail_ms"], "ms"),
            "peak_rss_mb": metric(children_rss_mb(), "MB"),
            "snslp_geomean_speedup": metric(reference_counts["snslp_geomean_speedup"], "x"),
            "lslp_geomean_speedup": metric(reference_counts["lslp_geomean_speedup"], "x"),
        },
        "notes": {
            "latency": lat,
            "setup_samples": len(setup),
        },
    }
