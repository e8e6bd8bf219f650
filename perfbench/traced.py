"""The traced run: split each workload's time across the repo's layers.

The end-to-end runs are untraced.  This run replays each workload's
seeds in-process — and drives a server launched with ``--metrics-out``
for ``serve`` — with spans recorded around the public seams the
benchmark can reach from its own files: ``kernel.build`` /
``make_inputs``, ``clone_module``, each ``pipeline_phases()`` entry,
``verify_module``, ``simulate``, ``generate_program``, ``run_oracle`` and
``make_interpreter(...).run``; for ``serve`` the request send and reply
and the ``stats`` op.  Nothing inside ``src/`` changes: the seams are
wrapped by rebinding module attributes for the duration of the replay.

A layer's self time is its spans' duration minus the part covered by
child spans.  Spans stay in memory and are written to
``.perfbench/trace-<seed>.json`` at the end.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import fuzz_wl
import serve_wl
from common import (
    CONFIGS,
    WORKLOADS,
    BenchmarkError,
    add_counters,
    compare_counts,
    fresh_seconds,
    geomean_speedups,
    guarded,
    log,
    metric,
    suite_pass,
    suite_problems,
    sum_into,
    work_dir,
)

#: suite seeds replayed per traced run (each: 16 kernels x 4 configs)
SUITE_SEEDS = 2
#: fuzz programs replayed per traced run
FUZZ_OPS = 100
#: seconds of serve schedule driven against the traced server
SERVE_SECONDS = 8.0
#: adjacent plain/armed suite-pass pairs for the telemetry overhead
TELEMETRY_PAIRS = 5
IMPORT_REPEATS = 5
#: per-layer metric -> the end-to-end metrics it should move and leave flat
LAYER_MAP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


class Spans:
    """In-memory span recorder: one list, one stack, single thread."""

    def __init__(self) -> None:
        self.events: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str, **args) -> Iterator[Dict]:
        event = {
            "name": name, "layer": layer, "args": args,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.events.append(event)
        self._stack.append(len(self.events) - 1)
        try:
            yield event
        finally:
            self._stack.pop()
            event["end"] = time.perf_counter()

    def add(self, name: str, layer: str, start: float, end: float, **args) -> None:
        """A span measured elsewhere (the serve client's timestamps)."""
        self.events.append({
            "name": name, "layer": layer, "args": args, "parent": None,
            "start": start, "end": end,
        })

    def wrap(self, fn: Callable, name: str, layer: str, args_of=None) -> Callable:
        def wrapper(*a, **kw):
            extra = args_of(*a, **kw) if args_of else {}
            with self.span(name, layer, **extra):
                return fn(*a, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self, workload: str) -> Dict[str, float]:
        """Self seconds per layer over the spans tagged with ``workload``."""
        child = [0.0] * len(self.events)
        for event in self.events:
            if event["parent"] is not None:
                child[event["parent"]] += event["end"] - event["start"]
        out: Dict[str, float] = {}
        for i, event in enumerate(self.events):
            if event["args"].get("workload", self._workload_of(i)) != workload:
                continue
            own = event["end"] - event["start"] - child[i]
            out[event["layer"]] = out.get(event["layer"], 0.0) + own
        return out

    def _workload_of(self, index: int) -> Optional[str]:
        while self.events[index]["parent"] is not None:
            index = self.events[index]["parent"]
        return self.events[index]["args"].get("workload")

    def total(self, name: str, **match) -> float:
        """Inclusive seconds of every span called ``name`` matching ``match``."""
        return sum(
            e["end"] - e["start"] for e in self.events
            if e["name"] == name and all(e["args"].get(k) == v for k, v in match.items())
        )

    def count(self, name: str) -> int:
        return sum(1 for e in self.events if e["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.events, handle)


@contextmanager
def patched(spans: Spans) -> Iterator[None]:
    """Rebind the seams the replays pass through to span-recording wrappers."""
    import repro.bench.runner as runner
    import repro.fuzz.oracle as oracle
    import repro.kernels.util as kernel_util
    import repro.vectorizer.pipeline as pipeline

    original = {
        "pipeline_phases": pipeline.pipeline_phases,
        "make_interpreter": oracle.make_interpreter,
    }

    def config_of(module, config, *a, **kw):
        return {"config": config.name}

    def phases(*a, **kw):
        layer = {"simplify": "passes", "unroll": "passes", "vectorize": "vectorizer"}
        return [
            (name, spans.wrap(fn, f"phase:{name}", layer[name]))
            for name, fn in original["pipeline_phases"](*a, **kw)
        ]

    def interpreter(*a, **kw):
        interp = original["make_interpreter"](*a, **kw)
        interp.run = spans.wrap(interp.run, "interp.run", "interp")
        return interp

    compile_wrapped = spans.wrap(pipeline.compile_module, "compile_module", "vectorizer", config_of)
    simulate_wrapped = spans.wrap(runner.simulate, "simulate", "sim")
    bindings = [
        (runner, "compile_module", compile_wrapped),
        (runner, "simulate", simulate_wrapped),
        (oracle, "compile_module", compile_wrapped),
        (oracle, "simulate", simulate_wrapped),
        (oracle, "make_interpreter", interpreter),
        (pipeline, "clone_module", spans.wrap(pipeline.clone_module, "clone_module", "ir")),
        (pipeline, "verify_module", spans.wrap(pipeline.verify_module, "verify_module", "ir")),
        (kernel_util, "verify_module", spans.wrap(kernel_util.verify_module, "verify_module", "ir")),
        (pipeline, "pipeline_phases", phases),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in bindings]
    try:
        for module, name, value in bindings:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


# -- suite ----------------------------------------------------------------------


def suite_counts(results) -> Dict[str, float]:
    counts: Dict[str, float] = {}
    for _, runs in results.values():
        for run in runs.values():
            add_counters(counts, run.counters)
    counts.update(geomean_speedups(runs for _, runs in results.values()))
    return counts


def reference_problems(results, seed: int, corrupt: bool = False) -> List[str]:
    """Every config's outputs vs the scalar engine on the unoptimised module.

    An independent check of the suite: the scalar reference engine runs
    the module ``kernel.build()`` returns, with no pass applied, and every
    config's output buffers must match it under the kernel's
    ``check_exact``/ULP contract.  ``corrupt`` perturbs one reference
    value, to prove the check notices.
    """
    from repro.bench.runner import outputs_match
    from repro.interp import make_interpreter

    problems = []
    for name, (kernel, runs) in results.items():
        interp = make_interpreter(kernel.build(), "scalar")
        for buffer, values in kernel.make_inputs(random.Random(seed)).items():
            interp.write_global(buffer, values)
        interp.run(kernel.function, [kernel.trip_count])
        want = {buffer: interp.read_global(buffer) for buffer in kernel.output_globals}
        if corrupt:
            first = kernel.output_globals[0]
            want[first] = [want[first][0] + 1] + list(want[first][1:])
        for config, run in runs.items():
            if not outputs_match(kernel, run.outputs, want):
                problems.append(f"suite seed {seed}: {name}/{config} differs from the scalar reference")
        if corrupt:
            break
    return problems


def telemetry_overhead(seed: int) -> float:
    """Wall of a suite pass with every telemetry channel armed, over plain.

    Plain and armed passes run in adjacent pairs, alternating which goes
    first, and the median pair ratio is reported, so a drift in machine
    speed during the run cancels instead of landing on one side.
    """
    from repro.observe.session import CompilerSession, use_session

    def timed_pass(armed: bool) -> float:
        session = CompilerSession(name="bench-armed" if armed else "bench-plain")
        if armed:
            session.metrics.enable()
            session.tracer.enable()
            session.remarks.enable()
            session.journal.enable()
            session.log.enable(level="debug")
        start = time.perf_counter()
        with use_session(session):
            suite_pass(seed)
        return time.perf_counter() - start

    ratios = []
    for i in range(TELEMETRY_PAIRS):
        first = timed_pass(armed=bool(i % 2))
        second = timed_pass(armed=not i % 2)
        plain, armed = (first, second) if i % 2 == 0 else (second, first)
        ratios.append(armed / plain)
    return statistics.median(ratios) - 1.0


# -- fuzz -----------------------------------------------------------------------


def fuzz_pass(seed: int, spans: Optional[Spans] = None):
    seeds = fuzz_wl.program_seeds(seed)
    return [fuzz_wl.run_op(next(seeds), spans) for _ in range(FUZZ_OPS)]


def fuzz_counts(reports) -> Dict[str, float]:
    counts: Dict[str, float] = {}
    for report in reports:
        sum_into(counts, fuzz_wl.op_counts(report))
    return counts


# -- serve ----------------------------------------------------------------------


def exposition_sums(path: str) -> Dict[str, float]:
    """``<name>_sum`` / ``_count`` samples from a Prometheus text file."""
    out: Dict[str, float] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            name, _, value = line.rpartition(" ")
            if name.endswith(("_sum", "_count")):
                out[name] = float(value)
    return out


def serve_trace(seed: int, spans: Spans) -> Tuple[Dict[str, float], Dict[str, Tuple[float, str]], List[str]]:
    """Drive a ``--metrics-out`` server and split its time.

    Returns (seconds per part of the request path, {metric: (value,
    unit)}, problems)."""
    metrics_path = os.path.join(work_dir(), f"serve-metrics-{os.getpid()}.prom")
    load = serve_wl.run_load(seed, SERVE_SECONDS, metrics_out=os.path.relpath(metrics_path))
    run, graded, stats = load["run"], load["graded"], load["stats"]
    sums = exposition_sums(metrics_path)
    os.unlink(metrics_path)
    send_to_reply = 0.0
    for rid, sent in enumerate(run["sent"]):
        reply = run["replies"].get(rid)
        if reply is not None:
            spans.add("serve.request", "serve", sent, reply[0], workload="serve", id=rid)
            send_to_reply += reply[0] - sent
    queue = sums.get("repro_serve_task_queue_seconds_sum", 0.0)
    turnaround = sums.get("repro_serve_task_turnaround_seconds_sum", 0.0)
    compile_s = sum(graded["miss_compile_s"])
    split = {
        "queue": queue,
        "worker compile (misses)": compile_s,
        "worker other (hits, marshal)": max(0.0, turnaround - queue - compile_s),
        "transport (socket, front-end)": max(0.0, send_to_reply - turnaround),
    }
    ok = len(graded["latencies"])
    workers = stats.get("workers") or [{"utilization": 0.0}]
    layer = {
        "serve.queue_ms_p50": (1000.0 * stats.get("queue_seconds", {}).get("p50", 0.0), "ms"),
        "serve.queue_ms_p99": (1000.0 * stats.get("queue_seconds", {}).get("p99", 0.0), "ms"),
        "serve.worker_utilization": (statistics.mean(w["utilization"] for w in workers), "ratio"),
        "serve.worker_compile_ms": (1000.0 * statistics.median(graded["miss_compile_s"] or [0.0]), "ms"),
        "serve.hit_latency_ms": (1000.0 * statistics.median(graded["hit_latencies"] or [0.0]), "ms"),
        "serve.miss_latency_ms": (1000.0 * statistics.median(graded["miss_latencies"] or [0.0]), "ms"),
        "serve.generator_lag_ms": (serve_wl.lag_ms(load), "ms"),
        "cache.hit_ratio": (len(graded["hit_latencies"]) / max(1, ok), "ratio"),
    }
    return split, layer, list(graded["problems"])


# -- the run --------------------------------------------------------------------


def check_layer_map(names) -> None:
    """Every per-layer metric, and no other, must be in layers.json, with
    ``moves``/``flat`` lists of ``<workload>.<metric>`` (or ``.*``)."""
    with open(LAYER_MAP, encoding="utf-8") as handle:
        mapping = json.load(handle)
    if list(mapping) != list(names):
        raise BenchmarkError(f"layers.json does not list the per-layer metrics: {set(mapping) ^ set(names)}")
    for name, doc in mapping.items():
        for target in doc["moves"] + doc["flat"]:
            if target.partition(".")[0] not in WORKLOADS:
                raise BenchmarkError(f"layers.json: {name}: unknown workload in {target!r}")


def table(title: str, seconds: Dict[str, float]) -> None:
    total = sum(seconds.values()) or 1.0
    log(f"{title}: self time by layer ({total:.3f} s)")
    for name, value in sorted(seconds.items(), key=lambda kv: -kv[1]):
        log(f"  {name:32s} {value:9.4f} s {100.0 * value / total:6.1f}%")


def run(seed: int) -> Dict:
    rng = random.Random(seed)
    suite_seeds = [rng.getrandbits(31) for _ in range(SUITE_SEEDS)]
    fuzz_seed = rng.getrandbits(31)
    spans = Spans()
    problems: List[str] = []
    drift: List[str] = []

    bare = fresh_seconds(["-c", "pass"], IMPORT_REPEATS)
    cli = fresh_seconds(["-c", "import repro.cli"], IMPORT_REPEATS)
    cli_import_s = statistics.median(cli) - statistics.median(bare)

    untraced_s = traced_s = 0.0
    counts: Dict[str, float] = {}
    first: Optional[Dict[str, float]] = None
    for s in suite_seeds:
        start = time.perf_counter()
        plain = suite_pass(s)
        untraced_s += time.perf_counter() - start
        if not reference_problems(plain, s, corrupt=True):
            raise BenchmarkError("the scalar-reference check accepted a corrupted output")
        start = time.perf_counter()
        with patched(spans):
            results = suite_pass(s, spans)
        traced_s += time.perf_counter() - start
        seed_counts = suite_counts(results)
        drift += compare_counts(f"suite seed {s} traced vs untraced", suite_counts(plain), seed_counts)
        # The suite's counts do not depend on the input seed.
        first = first or seed_counts
        drift += compare_counts("suite seeds", guarded(first), guarded(seed_counts))
        problems += reference_problems(results, s) + suite_problems(results, f"suite seed {s}")
        sum_into(counts, {k: v for k, v in seed_counts.items() if not k.endswith("geomean_speedup")})
    counts["snslp_geomean_speedup"] = first["snslp_geomean_speedup"]
    counts["lslp_geomean_speedup"] = first["lslp_geomean_speedup"]
    counts["kernels.build_calls"] = spans.count("kernel.build")

    start = time.perf_counter()
    plain_reports = fuzz_pass(fuzz_seed)
    untraced_s += time.perf_counter() - start
    start = time.perf_counter()
    with patched(spans):
        reports = fuzz_pass(fuzz_seed, spans)
    traced_s += time.perf_counter() - start
    drift += compare_counts("fuzz traced vs untraced", fuzz_counts(plain_reports), fuzz_counts(reports))
    for report in reports:
        problems += [f"fuzz: {p}" for p in fuzz_wl.verdict_problems(report)]
    sum_into(counts, fuzz_counts(reports))

    telemetry = telemetry_overhead(suite_seeds[0])
    serve_split, serve_layer, serve_problems = serve_trace(seed, spans)
    problems += serve_problems

    suite_self = spans.self_times("suite")
    fuzz_self = spans.self_times("fuzz")
    table("suite", suite_self)
    table("fuzz", fuzz_self)
    table("serve (server-side split from --metrics-out, client-side from replies)", serve_split)
    spans.write(os.path.join(work_dir(), f"trace-{seed}.json"))

    compile_by_config = {c: spans.total("compile_module", config=c) for c in CONFIGS}
    simulate_s = spans.total("simulate")
    hits = counts.get("interp.plan_cache_hits", 0)
    lookups = hits + counts.get("interp.plan_cache_misses", 0)
    per_layer = {
        "cli.import_s": (cli_import_s, "s"),
        "kernels.build_s": (spans.total("kernel.build"), "s"),
        "kernels.build_calls": (counts["kernels.build_calls"], "count"),
        "kernels.inputs_s": (spans.total("kernel.make_inputs"), "s"),
        "ir.clone_s": (spans.total("clone_module"), "s"),
        "ir.verify_s": (spans.total("verify_module"), "s"),
        "passes.simplify_s": (spans.total("phase:simplify"), "s"),
        "vectorizer.vectorize_s": (spans.total("phase:vectorize"), "s"),
        **{f"vectorizer.compile_s.{c}": (compile_by_config[c], "s") for c in CONFIGS},
        "vectorizer.snslp_compile_ratio": (compile_by_config["SN-SLP"] / compile_by_config["O3"], "ratio"),
        "vectorizer.graphs_built": (counts.get("vectorizer.graphs_built", 0), "count"),
        "vectorizer.vectorized_ratio": (
            counts.get("vectorizer.graphs_vectorized", 0) / max(1, counts.get("vectorizer.graphs_built", 0)), "ratio"),
        "supernode.moves_probed": (counts.get("supernode.moves_probed", 0), "count"),
        "supernode.undo_events": (counts.get("supernode.undo_events", 0), "count"),
        "lookahead.score_evaluations": (counts.get("lookahead.score_evaluations", 0), "count"),
        "sim.simulate_s": (simulate_s, "s"),
        "sim.instructions": (counts.get("sim.instructions", 0), "count"),
        "sim.instructions_per_s": (counts.get("sim.instructions", 0) / simulate_s, "1/s"),
        "interp.plan_cache_hit_ratio": (hits / max(1, lookups), "ratio"),
        "fuzz.generate_s": (spans.total("generate_program"), "s"),
        "fuzz.reference_s": (spans.total("interp.run"), "s"),
        **serve_layer,
        "observe.telemetry_overhead_ratio": (telemetry, "ratio"),
        "bench.trace_overhead_ratio": (traced_s / untraced_s - 1.0, "ratio"),
    }
    check_layer_map(per_layer)
    attempted = spans.count("compile_module") // len(CONFIGS) + spans.count("serve.request")
    return {
        "attempted": attempted,
        "failed": min(attempted, len(problems)),
        "problems": problems,
        "drift": drift,
        "counts": guarded(counts),
        "metrics": {name: metric(value, unit) for name, (value, unit) in per_layer.items()},
    }
