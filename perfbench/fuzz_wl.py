"""``fuzz``: seeded stress programs through the differential oracle.

Closed loop, in-process, single thread.  Each op generates one program
with ``generate_program(random_spec(s))`` and sends it through
``run_oracle``: an independent reference interpretation of the
unoptimised module, then compile + simulate under all four configs,
every output buffer compared against the reference.  The programs are
straight-line chains over 64-element buffers, so simulate is cheap and
SN-SLP's vectorize phase (Super-Node reorder and look-ahead) carries the
time — the opposite balance to ``suite``.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List

from common import (
    BenchmarkError,
    add_counters,
    fresh_seconds,
    guarded,
    metric,
    self_rss_mb,
    suite_geomeans,
    sum_into,
    summarize_latencies,
)

SETUP_REPEATS = 7
#: about 700-1100 ops a run: enough for p90 always, for p99 only sometimes
TAIL_Q = 90
WARMUP_OPS = 5
#: ops always run, whatever ``--seconds`` says: the counts over this
#: prefix are fixed by the seed, which the determinism guard relies on
MIN_OPS = 100
READY = "from repro.fuzz.genprog import generate_program, random_spec; from repro.fuzz.oracle import run_oracle"


def program_seeds(seed: int):
    """The workload's endless, seed-determined stream of program seeds."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def run_op(program_seed: int, spans=None):
    """One op: generate, then run the oracle (inputs seeded alike).

    With ``spans`` (a ``traced.Spans``) the op and both steps are spans."""
    from repro.fuzz.genprog import generate_program, random_spec
    from repro.fuzz.oracle import run_oracle

    if spans is None:
        program = generate_program(random_spec(program_seed))
        return run_oracle(program, input_seed=program_seed)
    with spans.span("fuzz.op", "fuzz", workload="fuzz"):
        with spans.span("generate_program", "fuzz"):
            program = generate_program(random_spec(program_seed))
        with spans.span("run_oracle", "fuzz"):
            return run_oracle(program, input_seed=program_seed)


def verdict_problems(report) -> List[str]:
    """Everything but an ``ok`` verdict from every config is a failure."""
    if report.reference_trapped:
        return ["reference trapped"]
    problems = [f"{o.config}: {o.status} {o.detail}" for o in report.outcomes if not o.ok]
    if len(report.outcomes) != 4:
        problems.append(f"{len(report.outcomes)} config verdicts, want 4")
    return problems


def self_test() -> None:
    """Prove the verdict check rejects a wrong output before trusting it."""
    from repro.fuzz.oracle import ConfigOutcome

    report = run_op(1)
    report.outcomes[-1] = ConfigOutcome(report.outcomes[-1].config, "mismatch", "injected")
    if not verdict_problems(report):
        raise BenchmarkError("fuzz checker accepted a deliberately wrong verdict")


def op_counts(report) -> Dict[str, float]:
    counts: Dict[str, float] = {}
    for outcome in report.outcomes:
        add_counters(counts, outcome.counters)
    return counts


def run(seed: int, seconds: float) -> Dict:
    setup = fresh_seconds(["-c", READY], SETUP_REPEATS)
    self_test()
    warm = program_seeds(seed ^ 0x5EED)
    for _ in range(WARMUP_OPS):
        run_op(next(warm))

    latencies: List[float] = []
    failures: List[str] = []
    counts: Dict[str, float] = {}
    attempted = failed = 0
    seeds = program_seeds(seed)
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < seconds:
        program_seed = next(seeds)
        t0 = time.perf_counter()
        report = run_op(program_seed)
        latencies.append(time.perf_counter() - t0)
        attempted += 1
        problems = verdict_problems(report)
        if problems:
            failed += 1
            failures.extend(f"program {program_seed}: {p}" for p in problems)
        if attempted <= MIN_OPS:
            sum_into(counts, op_counts(report))
    wall = time.perf_counter() - start
    peak_rss = self_rss_mb()
    geomeans, suite_problems = suite_geomeans(seed)
    counts.update(geomeans)
    lat = summarize_latencies(latencies, TAIL_Q)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": failures + suite_problems,
        "drift": [],
        "counts": guarded(counts),
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "ops_per_s": metric((attempted - failed) / wall, "1/s"),
            "op_p50_ms": metric(lat["p50_ms"], "ms"),
            "op_tail_ms": metric(lat["tail_ms"], "ms"),
            "peak_rss_mb": metric(peak_rss, "MB"),
            "snslp_geomean_speedup": metric(counts["snslp_geomean_speedup"], "x"),
            "lslp_geomean_speedup": metric(counts["lslp_geomean_speedup"], "x"),
        },
        "notes": {"latency": lat, "setup_samples": len(setup)},
    }
