"""Shared helpers for the benchmark: paths, statistics, processes, checks.

Nothing here imports ``repro`` at module load: ``run.py`` first checks
that the source tree is present, then puts it on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for sockets, cache directories, span dumps and the
#: determinism ledger; ignored by git, always inside the checkout
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("suite", "fuzz", "serve")

#: the suite's configurations, in the order the paper reports them
CONFIGS = ("O3", "SLP", "LSLP", "SN-SLP")

#: counts that must repeat exactly for a given seed (determinism guard)
GUARDED_COUNTS = (
    "snslp_geomean_speedup",
    "lslp_geomean_speedup",
    "sim.instructions",
    "kernels.build_calls",
    "vectorizer.graphs_built",
    "supernode.moves_probed",
    "lookahead.score_evaluations",
)

#: program counter name -> benchmark count name
COUNTER_NAMES = {
    "sim.instructions": "sim.instructions",
    "slp.graphs-built": "vectorizer.graphs_built",
    "slp.graphs-vectorized": "vectorizer.graphs_vectorized",
    "supernode.moves-probed": "supernode.moves_probed",
    "supernode.undo-events": "supernode.undo_events",
    "lookahead.score-evaluations": "lookahead.score_evaluations",
    "interp.plan_cache.hits": "interp.plan_cache_hits",
    "interp.plan_cache.misses": "interp.plan_cache_misses",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


def child_env() -> Dict[str, str]:
    """Environment for ``python -m repro`` children: the checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


# -- statistics ------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float], q: int) -> Tuple[float, str]:
    """Percentile ``q`` of ``values`` and its label.

    Each workload fixes ``q`` to what its runs sample enough for, so the
    reported percentile never switches between runs.  A tail with fewer
    than ten samples beyond it (a short ``--seconds``) says so in its
    label.
    """
    label = f"p{q}"
    if len(values) * (100 - q) < 1000:
        label += " (under 10 samples beyond)"
    return percentile(values, q), label


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fresh_seconds(argv: Sequence[str], repeats: int) -> List[float]:
    """Wall seconds of ``repeats`` fresh runs of ``python argv...``."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, *argv], env=child_env(), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
        )
        out.append(time.perf_counter() - start)
    return out


def run_child(argv: Sequence[str], timeout: float) -> Tuple[int, str, float]:
    """Run ``python argv...``; return (exit code, stdout, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return -1, "", time.perf_counter() - start
    return proc.returncode, out, time.perf_counter() - start


def children_rss_mb() -> float:
    """Peak RSS of the largest child process reaped so far (Linux: KiB).

    A child's figure includes its own reaped children, so for the compile
    server it covers the warm workers too."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- program-side counts ---------------------------------------------------------


def add_counters(total: Dict[str, float], counters: Dict[str, float]) -> None:
    """Fold a program counter snapshot into benchmark count names."""
    for name, value in counters.items():
        mapped = COUNTER_NAMES.get(name)
        if mapped is not None:
            total[mapped] = total.get(mapped, 0) + value


def sum_into(total: Dict[str, float], more: Dict[str, float]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


def geomean_speedups(matrices) -> Dict[str, float]:
    """Geomean SN-SLP and LSLP speedups over O3 across kernel matrices
    (``run_kernel_matrix`` results, one per kernel)."""
    from repro.bench.runner import speedup_over

    matrices = list(matrices)
    return {
        name: geomean([speedup_over(runs, config) for runs in matrices])
        for config, name in (("SN-SLP", "snslp_geomean_speedup"), ("LSLP", "lslp_geomean_speedup"))
    }


def traced_kernel(kernel, spans):
    """``kernel`` with span-recording ``build`` and ``make_inputs``."""
    return dataclasses.replace(
        kernel,
        build=spans.wrap(kernel.build, "kernel.build", "kernels"),
        make_inputs=spans.wrap(kernel.make_inputs, "kernel.make_inputs", "kernels"),
    )


def suite_pass(seed: int, spans=None) -> Dict[str, Tuple[object, Dict]]:
    """One in-process Fig 5 evaluation: {kernel name: (kernel, runs)}.

    With ``spans`` (a ``traced.Spans``), each kernel's matrix is a span
    and the kernel's ``build``/``make_inputs`` record spans too.
    """
    from repro.bench.runner import run_kernel_matrix
    from repro.kernels.suite import all_kernels

    results = {}
    for kernel in all_kernels():
        if spans is None:
            results[kernel.name] = (kernel, run_kernel_matrix(kernel, seed=seed))
            continue
        with spans.span("run_kernel_matrix", "bench", workload="suite", kernel=kernel.name):
            results[kernel.name] = (kernel, run_kernel_matrix(traced_kernel(kernel, spans), seed=seed))
    return results


def suite_problems(results, label: str) -> List[str]:
    """Every pair of a suite pass must be correct against O3."""
    return [
        f"{label}: {name}/{config} incorrect vs O3"
        for name, (_, runs) in results.items()
        for config, run in runs.items() if not run.correct
    ]


def suite_geomeans(seed: int) -> Tuple[Dict[str, float], List[str]]:
    """Fig 5 geomean speedups over O3 from one in-process suite evaluation.

    The speedups come from simulated cycles, so they do not depend on the
    machine.  Returns (geomeans, problems).
    """
    results = suite_pass(seed)
    return (
        geomean_speedups(runs for _, runs in results.values()),
        suite_problems(results, "suite evaluation"),
    )


# -- determinism guard -----------------------------------------------------------


def check_ledger(key: str, counts: Dict[str, float]) -> List[str]:
    """Compare ``counts`` with what an earlier run with ``key`` recorded.

    The ledger lives in the checkout and is keyed by workload, seed and
    a fingerprint of the source tree, so only runs of the same code on
    the same inputs are compared.  Returns one message per drifted count
    (empty when none drifted, or when ``key`` is new and was recorded).
    """
    from repro.vectorizer.cache import repro_source_fingerprint

    path = os.path.join(work_dir(), "ledger.json")
    try:
        with open(path, encoding="utf-8") as handle:
            ledger = json.load(handle)
    except (OSError, ValueError):
        ledger = {}
    full_key = f"{key}:{repro_source_fingerprint()}"
    recorded = ledger.get(full_key)
    if recorded is None:
        ledger[full_key] = counts
        tmp = path + f".{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, sort_keys=True, indent=1)
        os.replace(tmp, path)
        return []
    return [
        f"{name}: recorded {recorded.get(name)!r}, now {counts.get(name)!r}"
        for name in sorted(set(recorded) | set(counts))
        if recorded.get(name) != counts.get(name)
    ]


def compare_counts(label: str, want: Dict[str, float], got: Dict[str, float]) -> List[str]:
    return [
        f"{label}: {name} {want.get(name)!r} != {got.get(name)!r}"
        for name in sorted(set(want) | set(got))
        if want.get(name) != got.get(name)
    ]


def guarded(counts: Dict[str, float]) -> Dict[str, float]:
    return {name: counts[name] for name in GUARDED_COUNTS if name in counts}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def summarize_latencies(latencies_s: Sequence[float], tail_q: int) -> Dict[str, object]:
    """p50/tail in ms plus the sample count and which percentile the tail is."""
    ms = [1000.0 * x for x in latencies_s]
    tail_value, label = tail(ms, tail_q)
    return {
        "p50_ms": statistics.median(ms),
        "tail_ms": tail_value,
        "tail_label": label,
        "samples": len(ms),
    }
