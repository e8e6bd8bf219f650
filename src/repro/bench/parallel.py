"""Process-parallel benchmark execution over the compile service.

The benchmark matrix is embarrassingly parallel: every (kernel,
configuration) pair compiles and simulates independently, and PR 4's
reentrant :class:`~repro.observe.session.CompilerSession` makes each
pair's counters self-contained.  This module shards pairs across worker
processes and reassembles results **deterministically**: the simulator
charges cycles from a fixed cost model (no wall-clock anywhere in the
data), so a parallel run is bit-identical to the serial one on cycles,
counters, vectorization statistics and correctness — only the wall-clock
``compile_seconds``/``phase_seconds`` fields differ, as they do between
any two serial runs.

Since PR 7 the fan-out goes through
:class:`~repro.serve.service.CompileService` — a persistent pool of
warm-session workers (see :mod:`repro.serve`) — instead of a throwaway
``ProcessPoolExecutor`` per call.  Callers can pass their own running
``service=`` (the ``repro bench --service`` path: one pool for the whole
invocation, shared result cache across runs); otherwise an ephemeral
service is spun up for the call, which is the old semantics with the new
transport.  Tasks are sharded by *kernel name* so repeat compiles of one
kernel hit the worker that already holds its warm state.

Workers receive *names*, not objects: kernels, programs, configs and
targets are all resolvable from registries
(:func:`~repro.kernels.suite.kernel_named` & co.), which keeps the
pickled payloads tiny and sidesteps the fact that kernel builders are
closures.  Payloads carry no observability flags: every pair runs under
:func:`~repro.observe.session.task_session` with the parent session's
channels, and its record is absorbed into the parent — by the service
on the pooled path, right here on the serial path.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernels.suite import Kernel, all_kernels, kernel_named
from ..machine.targets import DEFAULT_TARGET, TargetMachine, target_named
from ..observe import STAT
from ..observe.session import (
    CompilerSession,
    current_session,
    task_session,
    use_session,
)
from ..vectorizer.slp import ALL_CONFIGS, O3_CONFIG, SLPConfig, config_named
from .runner import DEFAULT_SEED, KernelRun, outputs_match, run_kernel_config

#: (kernel_name, config_name, target_name, seed, journal) — everything
#: a worker needs
PairPayload = Tuple[str, str, str, int, bool]

# Parallel-driver overhead counters.  These record into the *parent*
# session only (workers never see them), so serial/parallel KernelRun
# equivalence is untouched; they exist so BENCH reports can attribute
# the jobs=2 slowdown (ROADMAP Open item 1) without a profiler.
_OVERHEAD_SECONDS = STAT(
    "parallel.overhead_seconds",
    "pool wall beyond the ideal jobs-way split of in-worker time",
)
_SPAWN_SECONDS = STAT(
    "parallel.spawn_seconds",
    "pool start to first worker result, minus that task's in-worker time",
)
_TASKS = STAT("parallel.tasks", "pairs dispatched to the worker pool")


def default_jobs() -> int:
    return os.cpu_count() or 1


def _resolve_jobs(jobs: Optional[int]) -> int:
    return default_jobs() if jobs is None else max(1, jobs)


def _run_pair(payload: PairPayload) -> KernelRun:
    """Worker: run one (kernel, config) pair in the ambient session.

    Called inside a per-task session, the pair's compile and simulate
    record into a child of it, so its spans, remarks and histograms
    reach the task's telemetry record while its counters stay in the
    run's own snapshot.
    """
    kernel_name, config_name, target_name, seed, journal = payload
    return run_kernel_config(
        kernel_named(kernel_name),
        config_named(config_name),
        target_named(target_name),
        seed,
        journal=journal,
    )


def _with_oracle(configs: Sequence[SLPConfig]) -> List[SLPConfig]:
    configs = list(configs)
    if not any(c.name == O3_CONFIG.name for c in configs):
        configs.insert(0, O3_CONFIG)
    return configs


def _assemble(
    kernels: Sequence[Kernel],
    configs: Sequence[SLPConfig],
    results: Sequence[KernelRun],
) -> Dict[str, Dict[str, KernelRun]]:
    """Group worker results back into per-kernel matrices (payload order)
    and apply the O3 correctness cross-check in the parent."""
    suite: Dict[str, Dict[str, KernelRun]] = {}
    cursor = 0
    for kernel in kernels:
        runs = {
            config.name: results[cursor + offset]
            for offset, config in enumerate(configs)
        }
        cursor += len(configs)
        oracle = runs[O3_CONFIG.name]
        for run in runs.values():
            run.correct = outputs_match(kernel, run.outputs, oracle.outputs)
        suite[kernel.name] = runs
    return suite


def run_kernel_matrix_parallel(
    kernel: Kernel,
    configs: Sequence[SLPConfig] = ALL_CONFIGS,
    target: TargetMachine = DEFAULT_TARGET,
    seed: int = DEFAULT_SEED,
    jobs: Optional[int] = None,
) -> Dict[str, KernelRun]:
    """Parallel twin of :func:`~repro.bench.runner.run_kernel_matrix`.

    Shards one kernel's configurations across ``jobs`` worker processes
    (default: all cores).  ``jobs=1`` degenerates to the serial runner.
    """
    return run_suite_parallel([kernel], configs, target, seed, jobs)[kernel.name]


def run_suite_parallel(
    kernels: Optional[Sequence[Kernel]] = None,
    configs: Sequence[SLPConfig] = ALL_CONFIGS,
    target: TargetMachine = DEFAULT_TARGET,
    seed: int = DEFAULT_SEED,
    jobs: Optional[int] = None,
    journal: bool = False,
    service=None,
    resilience=None,
) -> Dict[str, Dict[str, KernelRun]]:
    """Run every (kernel, config) pair of the suite, sharded over
    processes; returns ``{kernel_name: {config_name: KernelRun}}``.

    Results are reassembled in payload order, so the outcome is
    deterministic regardless of ``jobs`` or completion order.  If the
    *calling* session's tracer, remark collector or metrics registry is
    enabled, every pair collects the same streams and its record is
    absorbed into the caller's session when the pair completes: the
    merged spans, remarks and histograms are the same multiset at any
    ``jobs``, in completion order.
    ``journal=True`` attaches a per-run decision-journal summary to each
    :class:`KernelRun`.

    ``service=`` reuses a running
    :class:`~repro.serve.service.CompileService` (warm workers + shared
    result cache across calls); without one an ephemeral service is
    started for this call.

    ``resilience=`` is a
    :class:`~repro.serve.resilience.ResiliencePolicy`: service traffic
    then goes through a :class:`~repro.serve.resilience.ResilientExecutor`
    (retry/backoff, optional hedging, circuit-breaker degradation down to
    an ephemeral local pool or serial in-process execution), so the suite
    completes with identical results even when the service fails mid-run.
    Only honoured on the service path; the plain serial path needs no
    resilience.

    Overhead attribution: the parallel path records, into the *parent*
    session only, how much task wall clock was spent outside workers —
    ``parallel.overhead_seconds`` / ``parallel.marshal_seconds`` /
    ``parallel.spawn_seconds`` counters plus per-task histograms when
    metrics are armed — so a slower-than-serial parallel run explains
    itself from the report.
    """
    parent = current_session()
    kernels = list(kernels) if kernels is not None else all_kernels()
    configs = _with_oracle(configs)
    payloads: List[PairPayload] = [
        (kernel.name, config.name, target.name, seed, journal)
        for kernel in kernels
        for config in configs
    ]
    jobs = _resolve_jobs(jobs)
    if service is None and (jobs <= 1 or len(payloads) <= 1):
        runs = []
        for payload in payloads:
            with task_session(parent, parent.channels()) as telemetry:
                runs.append(_run_pair(payload))
            parent.absorb(telemetry)
    else:
        runs = _dispatch(
            parent, payloads, jobs, service=service, resilience=resilience
        )
    return _assemble(kernels, configs, runs)


def _dispatch(
    parent: CompilerSession,
    payloads: Sequence[PairPayload],
    jobs: int,
    service=None,
    resilience=None,
) -> List[KernelRun]:
    """Fan payloads over the compile service, measuring dispatch overhead.

    Payload pickling cost is timed by the service submit path (the
    ``parallel.marshal_seconds`` counter / ``parallel.task.marshal_seconds``
    histogram now measure the real encode of each payload), and every
    task's telemetry record carries its in-worker wall seconds.
    ``parallel.overhead_seconds`` is the pool wall clock minus the
    perfectly-parallel worker time (``sum(worker_seconds) / workers``) —
    exactly the gap between the observed jobs=N time and the ideal N-way
    split, so a slower-than-serial run is attributable to spawn +
    marshal + IPC + imbalance rather than "the kernels got slower".
    Per-task turnaround (submit to done-callback, queueing included)
    lands in a histogram.  All derived counters and histograms go to the
    *parent* session, never into the per-run counter snapshots.
    """
    from ..serve.service import CompileService

    stats = parent.stats
    session_metrics = parent.metrics
    done_at: Dict[int, float] = {}
    submit_at: List[float] = []
    owns_service = service is None
    pool_start = time.perf_counter()
    if owns_service:
        service = CompileService(
            workers=min(jobs, len(payloads)),
            session=parent,
            name="bench-pool",
        )
        service.start()
    use_cache = service.result_cache_enabled
    try:
        if resilience is not None:
            from ..serve.resilience import ResilientExecutor

            # The executor owns submission and waiting: tasks that hit a
            # failing service retry/degrade, but land back here in
            # payload order, so the assembled suite is unchanged.
            tasks = [
                ("bench-pair", (payload, use_cache), payload[0], 1.0)
                for payload in payloads
            ]
            for _ in payloads:
                _TASKS.resolve(stats).add()
            with parent.tracer.span("parallel:submit", tasks=len(payloads)):
                with ResilientExecutor(
                    service, policy=resilience, session=parent
                ) as executor:
                    runs = executor.run_batch(tasks)
            telemetry = executor.telemetry
        else:
            with parent.tracer.span("parallel:submit", tasks=len(payloads)):
                futures = []
                for index, payload in enumerate(payloads):
                    _TASKS.resolve(stats).add()
                    submit_at.append(time.perf_counter())
                    future = service.submit(
                        "bench-pair", (payload, use_cache),
                        shard_key=payload[0],
                    )
                    future.add_done_callback(
                        lambda _, i=index: done_at.__setitem__(
                            i, time.perf_counter()
                        )
                    )
                    futures.append(future)
            runs = [future.result() for future in futures]
            telemetry = [future.telemetry for future in futures]
    finally:
        if owns_service:
            service.close()
    pool_wall = time.perf_counter() - pool_start
    workers = min(service.workers, len(payloads))
    worker_seconds = [record.seconds for record in telemetry]
    for index, seconds in enumerate(worker_seconds):
        if index < len(submit_at):  # resilient path times elsewhere
            turnaround = (
                done_at.get(index, pool_start + pool_wall) - submit_at[index]
            )
            session_metrics.observe(
                "parallel.task.turnaround_seconds", max(0.0, turnaround),
                description="submit-to-done wall seconds per task "
                "(queueing included)",
            )
        session_metrics.observe(
            "parallel.task.worker_seconds", seconds,
            description="in-worker wall seconds per task",
        )
    worker_total = sum(worker_seconds)
    overhead = max(0.0, pool_wall - worker_total / max(1, workers))
    _OVERHEAD_SECONDS.resolve(stats).add(overhead)
    session_metrics.observe(
        "parallel.dispatch.overhead_seconds", overhead,
        description="pool wall seconds beyond the ideal jobs-way split "
        "of in-worker time (spawn + marshal + IPC + imbalance)",
    )
    if done_at:
        first_index = min(done_at, key=done_at.get)
        spawn = max(
            0.0,
            done_at[first_index] - pool_start - worker_seconds[first_index],
        )
        _SPAWN_SECONDS.resolve(stats).add(spawn)
        session_metrics.gauge(
            "parallel.pool_spawn_seconds", spawn,
            description="pool start to first result, minus in-worker time",
        )
    return runs


# -- figure-level workers -----------------------------------------------------------


def _service_map(kind: str, payloads: Sequence[object], jobs: int) -> List[object]:
    """Run ``payloads`` through an ephemeral compile service, in order."""
    from ..serve.service import CompileService

    service = CompileService(
        workers=min(jobs, len(payloads)),
        session=current_session(),
        name=f"{kind}-pool",
    )
    service.start()
    try:
        futures = [service.submit(kind, payload) for payload in payloads]
        return [future.result() for future in futures]
    finally:
        service.close()


#: (program_name, config_name, target_name, seed, bulk_trip)
ProgramPayload = Tuple[str, str, str, int, int]


def _run_program_config(payload: ProgramPayload) -> Dict[str, float]:
    """Worker: one composite program under one configuration (Figure 8)."""
    from ..kernels.programs import program_named
    from .figures import _program_cycles

    program_name, config_name, target_name, seed, bulk_trip = payload
    session = CompilerSession(name=f"fig8-worker:{program_name}/{config_name}")
    with use_session(session):
        return _program_cycles(
            program_named(program_name),
            config_named(config_name),
            target_named(target_name),
            seed,
            bulk_trip,
        )


def run_program_grid_parallel(
    program_names: Sequence[str],
    config_names: Sequence[str],
    target: TargetMachine,
    seed: int,
    bulk_trip: int,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fan (program, config) cycle measurements out over the compile
    service; returns ``{program_name: {config_name: cycle_data}}``."""
    payloads: List[ProgramPayload] = [
        (program, config, target.name, seed, bulk_trip)
        for program in program_names
        for config in config_names
    ]
    jobs = _resolve_jobs(jobs)
    if jobs <= 1 or len(payloads) <= 1:
        results = [_run_program_config(payload) for payload in payloads]
    else:
        results = _service_map("program-grid", payloads, jobs)
    grid: Dict[str, Dict[str, Dict[str, float]]] = {}
    cursor = 0
    for program in program_names:
        grid[program] = {
            config: results[cursor + offset]
            for offset, config in enumerate(config_names)
        }
        cursor += len(config_names)
    return grid


#: (kernel_name, target_name, runs, warmup)
TimingPayload = Tuple[str, str, int, int]


def _time_kernel(payload: TimingPayload) -> Dict[str, object]:
    """Worker: one kernel's Figure 11 compile-time row."""
    from .timing import compile_time_and_phase_stats

    kernel_name, target_name, runs, warmup = payload
    session = CompilerSession(name=f"fig11-worker:{kernel_name}")
    with use_session(session):
        stats, phases = compile_time_and_phase_stats(
            kernel_named(kernel_name), target_named(target_name),
            runs=runs, warmup=warmup,
        )
    o3 = stats["O3"]
    return {
        "kernel": kernel_name,
        "O3": 1.0,
        "LSLP": stats["LSLP"].mean / o3.mean,
        "SN-SLP": stats["SN-SLP"].mean / o3.mean,
        "LSLP stddev": stats["LSLP"].stddev / o3.mean,
        "SN-SLP stddev": stats["SN-SLP"].stddev / o3.mean,
        "phase_seconds": phases,
    }


def time_kernels_parallel(
    kernels: Sequence[Kernel],
    target: TargetMachine,
    runs: int,
    warmup: int,
    jobs: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Figure 11 rows, one worker per kernel, in kernel order."""
    payloads: List[TimingPayload] = [
        (kernel.name, target.name, runs, warmup) for kernel in kernels
    ]
    jobs = _resolve_jobs(jobs)
    if jobs <= 1 or len(payloads) <= 1:
        return [_time_kernel(payload) for payload in payloads]
    return _service_map("fig11-timing", payloads, jobs)
