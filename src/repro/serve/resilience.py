"""Client-side resilience for compile-service traffic.

The compile service (:mod:`repro.serve.service`) already recovers from
*worker* failures — crashes respawn, wedged workers are killed, in-flight
tasks requeue.  This module is the **client's** half of the contract: a
bench/fuzz driver that talks to a service must finish with bit-identical
results even when the service itself misbehaves or disappears.

Three cooperating pieces:

* :class:`ResiliencePolicy` — the knobs: bounded retries with exponential
  backoff and *deterministic* jitter (seeded hash, never ``random``, so a
  chaos run replays exactly), optional hedging for straggler tasks, and
  circuit-breaker thresholds.
* :class:`CircuitBreaker` — classic closed/open/half-open gate.  Enough
  consecutive failures trip it open; while open, tasks skip the service
  entirely and descend the degradation ladder; after a cooldown one
  probe request (half-open) decides whether to close it again.
* :class:`ResilientExecutor` — wraps a :class:`CompileService` and runs
  task batches through the ladder::

      service  →  ephemeral local pool  →  serial in-process

  Every descent is counted (``serve.degraded``) and narrated with a
  ``recovery`` remark, so a chaos campaign can tell *recovered* (service
  healed itself, no descent) from *degraded* (ladder fallback) runs.

Determinism: the task runners themselves are deterministic, so **where**
a task executes never changes its result — only its wall-clock cost.
That is the invariant the chaos campaign checks.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..observe import STAT
from ..observe.context import TraceContext, mint_context, new_span_id
from ..observe.session import (
    CompilerSession,
    TaskTelemetry,
    current_session,
    current_tracer,
    task_session,
)
from ..observe.trace import TraceEvent
from .service import (
    CompileService,
    RemoteTaskError,
    ServiceClosed,
    ServiceError,
    ServiceUnavailable,
    TaskCancelled,
    TaskTimeout,
    WorkerCrashed,
)

_RETRIES = STAT("serve.retries", "task resubmissions by the resilience policy")
_HEDGES = STAT("serve.hedges", "duplicate requests hedged for stragglers")
_HEDGE_WINS = STAT("serve.hedge_wins", "hedged duplicates that finished first")
_DEGRADED = STAT(
    "serve.degraded", "tasks that fell down the degradation ladder"
)
_BREAKER_TRIPS = STAT(
    "serve.breaker_trips", "circuit-breaker transitions to the open state"
)

#: failures where resubmitting to the *same* service can plausibly help:
#: the worker that died/wedged/errored has been (or is being) replaced.
_RETRYABLE = (WorkerCrashed, TaskTimeout, RemoteTaskError)

#: failures where the service as a whole is gone or refused the task —
#: retrying is pointless, descend the ladder immediately.
_FATAL_FOR_SERVICE = (ServiceUnavailable, ServiceClosed, TaskCancelled)

#: one executor-managed task: (kind, payload, shard_key, weight)
TaskSpec = Tuple[str, object, Optional[str], float]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Retry/backoff/hedging/breaker knobs for :class:`ResilientExecutor`."""

    #: resubmissions per task after the first attempt fails
    max_retries: int = 2
    #: backoff before retry ``n`` is ``base * factor**(n-1)``, capped
    backoff_base_seconds: float = 0.02
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 0.5
    #: jitter scales the delay by ``1 ± ratio`` (deterministic, seeded)
    jitter_ratio: float = 0.25
    #: seed folded into the jitter hash so campaigns replay exactly
    seed: int = 0
    #: hedge a duplicate request after this many seconds without a
    #: result (None = hedging off)
    hedge_after_seconds: Optional[float] = None
    #: consecutive failures that trip the breaker open
    breaker_failures: int = 3
    #: seconds the breaker stays open before allowing a half-open probe
    breaker_cooldown_seconds: float = 5.0
    #: workers in the ephemeral local pool (ladder rung 2; 0 skips the
    #: rung and degrades straight to serial in-process)
    local_pool_workers: int = 2


def backoff_delay(policy: ResiliencePolicy, attempt: int, token: str = "") -> float:
    """Delay before retry ``attempt`` (1-based), with deterministic jitter.

    Jitter comes from ``sha256(seed, token, attempt)`` — no global RNG is
    touched, so two runs of the same campaign sleep identical schedules.
    """
    if attempt <= 0:
        return 0.0
    base = policy.backoff_base_seconds * (
        policy.backoff_factor ** (attempt - 1)
    )
    base = min(policy.backoff_max_seconds, base)
    digest = hashlib.sha256(
        f"{policy.seed}\x00{token}\x00{attempt}".encode("utf-8")
    ).digest()
    fraction = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
    jitter = policy.jitter_ratio * (2.0 * fraction - 1.0)
    return max(0.0, base * (1.0 + jitter))


class CircuitBreaker:
    """Closed/open/half-open failure gate over a monotonic clock.

    * **closed** — requests flow; consecutive failures are counted.
    * **open** — :meth:`allow` returns False until the cooldown lapses.
    * **half-open** — one probe is admitted; success closes the breaker,
      failure re-opens it (and restarts the cooldown).
    """

    def __init__(
        self,
        failures_to_trip: int = 3,
        cooldown_seconds: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        self.failures_to_trip = max(1, failures_to_trip)
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self.state = "closed"
        self.consecutive_failures = 0
        self.trips = 0
        self._opened_at = 0.0
        self._probing = False

    def allow(self) -> bool:
        """May the next request go to the service?"""
        with self._lock:
            if self.state == "closed":
                return True
            now = self._clock()
            if self.state == "open":
                if now - self._opened_at < self.cooldown_seconds:
                    return False
                self.state = "half-open"
                self._probing = False
            # half-open: admit exactly one probe at a time
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self.state = "closed"
            self.consecutive_failures = 0
            self._probing = False

    def record_failure(self) -> bool:
        """Count a failure; True when this call tripped the breaker open."""
        with self._lock:
            self.consecutive_failures += 1
            if self.state == "half-open":
                tripped = True  # failed probe re-opens
            elif (
                self.state == "closed"
                and self.consecutive_failures >= self.failures_to_trip
            ):
                tripped = True
            else:
                tripped = False
            if tripped:
                self.state = "open"
                self._opened_at = self._clock()
                self._probing = False
                self.trips += 1
            return tripped


class ResilientExecutor:
    """Run task batches through retry → hedge → degradation ladder.

    ``service`` may be None (or die mid-batch): every task still
    completes, just further down the ladder.  Results are position-stable
    — ``run_batch(tasks)[i]`` is always the result for ``tasks[i]`` — and
    after a batch ``telemetry[i]`` is the record of the attempt that
    produced it, whichever rung ran it (already absorbed by that rung).
    """

    def __init__(
        self,
        service: Optional[CompileService],
        policy: Optional[ResiliencePolicy] = None,
        session: Optional[CompilerSession] = None,
    ) -> None:
        self.service = service
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.session = session if session is not None else current_session()
        self.breaker = CircuitBreaker(
            failures_to_trip=self.policy.breaker_failures,
            cooldown_seconds=self.policy.breaker_cooldown_seconds,
        )
        self._lock = threading.Lock()
        self._local_service: Optional[CompileService] = None
        self._local_failed = False
        self._serial_state = None
        self.telemetry: List[TaskTelemetry] = []

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "ResilientExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            local, self._local_service = self._local_service, None
        if local is not None:
            try:
                local.close(drain=False)
            except Exception:
                pass

    # -- the batch API --------------------------------------------------

    def run_batch(self, tasks: Sequence[TaskSpec]) -> List[object]:
        """Execute every task; results in submission order, no escapes.

        While the session tracer is enabled each task gets one minted
        :class:`TraceContext` for its entire ladder journey: the first
        service attempt, every retry (same trace id, bumped attempt),
        any hedged duplicate, and the degradation rungs all share it, so
        the whole story lands in one ``client:request``-rooted span tree.
        """
        traced = self.session.tracer.enabled
        contexts: List[Optional[TraceContext]] = [
            mint_context() if traced else None for _ in tasks
        ]
        started = [time.perf_counter_ns() if traced else 0 for _ in tasks]
        futures: List[Optional[Future]] = [
            self._try_submit(task, trace=context)
            for task, context in zip(tasks, contexts)
        ]
        outcomes = [
            self._collect(task, future, context, start_ns)
            for task, future, context, start_ns in zip(
                tasks, futures, contexts, started
            )
        ]
        self.telemetry = [telemetry for _, telemetry in outcomes]
        return [result for result, _ in outcomes]

    # -- service attempts ----------------------------------------------

    def _try_submit(
        self,
        task: TaskSpec,
        shard_key: object = "use-task",
        trace: Optional[TraceContext] = None,
    ) -> Optional[Future]:
        """Submit to the service, or None when it can't take the task."""
        if self.service is None or not self.breaker.allow():
            return None
        kind, payload, task_shard, weight = task
        shard = task_shard if shard_key == "use-task" else shard_key
        try:
            return self.service.submit(
                kind, payload, shard_key=shard, weight=weight, trace=trace
            )
        except ServiceError:
            self._count_failure()
            return None

    def _collect(
        self,
        task: TaskSpec,
        future: Optional[Future],
        context: Optional[TraceContext] = None,
        started_ns: int = 0,
    ) -> Tuple[object, TaskTelemetry]:
        kind, _, shard_key, _ = task
        policy = self.policy
        attempt = 0
        last_exc: Optional[BaseException] = None
        while future is not None:
            try:
                winner = self._await(task, future, context)
                result = winner.result()
            except ServiceError as exc:
                last_exc = exc
                self._count_failure()
                if (
                    isinstance(exc, _FATAL_FOR_SERVICE)
                    or attempt >= policy.max_retries
                ):
                    future = None
                    break
                attempt += 1
                _RETRIES.resolve(self.session.stats).add()
                if context is not None:
                    context = context.retry()
                self.session.log.emit(
                    "info", "retry",
                    f"resubmitting {kind} task after "
                    f"{type(exc).__name__} (attempt {attempt})",
                    trace_id=context.trace_id if context else "",
                    kind=kind,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                delay = backoff_delay(
                    policy, attempt, token=shard_key or kind
                )
                if delay > 0:
                    time.sleep(delay)
                future = self._try_submit(task, trace=context)
            else:
                self.breaker.record_success()
                self._sync_breaker()
                self._finish_client_span(task, context, started_ns, "ok")
                return result, winner.telemetry
        outcome = self._run_degraded(task, cause=last_exc, context=context)
        self._finish_client_span(task, context, started_ns, "degraded")
        return outcome

    def _finish_client_span(
        self,
        task: TaskSpec,
        context: Optional[TraceContext],
        started_ns: int,
        status: str,
    ) -> None:
        """Close the per-task root: the client-side ``client:request``
        span every service/worker/ladder span ultimately parents into."""
        if context is None or not self.session.tracer.enabled:
            return
        self.session.tracer.events.append(
            TraceEvent(
                name="client:request",
                start_ns=started_ns,
                duration_ns=max(0, time.perf_counter_ns() - started_ns),
                depth=0,
                args={
                    "kind": task[0],
                    "status": status,
                    "attempt": context.attempt,
                },
                trace_id=context.trace_id,
                span_id=context.span_id,
                parent_id="",
            )
        )

    def _await(
        self,
        task: TaskSpec,
        future: Future,
        context: Optional[TraceContext] = None,
    ) -> Future:
        """Wait for ``future``, hedging a duplicate if it straggles;
        returns the future that finished first without error."""
        hedge_after = self.policy.hedge_after_seconds
        if hedge_after is None:
            future.result()
            return future
        done, _ = _wait_futures([future], timeout=hedge_after)
        if done:
            future.result()
            return future
        # Straggler: race a duplicate on a *different* worker (no shard
        # pin), since the pinned worker is the likely culprit.  The hedge
        # shares the original request's trace context, so both attempts
        # land in the same span tree.
        hedge = self._try_submit(task, shard_key=None, trace=context)
        if hedge is None:
            future.result()
            return future
        _HEDGES.resolve(self.session.stats).add()
        self.session.log.emit(
            "info", "hedge",
            f"hedged a duplicate {task[0]} request after "
            f"{hedge_after:g}s without a result",
            trace_id=context.trace_id if context else "",
            kind=task[0],
        )
        pair = [future, hedge]
        pending = set(pair)
        winner: Optional[Future] = None
        first_exc: Optional[BaseException] = None
        while pending:
            done, pending = _wait_futures(
                pending, return_when=FIRST_COMPLETED
            )
            for f in done:
                if f.exception() is None:
                    winner = f
                    break
                if first_exc is None:
                    first_exc = f.exception()
            if winner is not None:
                break
        if winner is None:
            assert first_exc is not None
            raise first_exc
        for f in pair:
            if f is not winner and not f.done() and self.service is not None:
                cancelled = self.service.cancel(f)
                if cancelled:
                    self._record_hedge_loser(task, context, f is hedge)
        if winner is hedge:
            _HEDGE_WINS.resolve(self.session.stats).add()
        return winner

    def _record_hedge_loser(
        self,
        task: TaskSpec,
        context: Optional[TraceContext],
        loser_was_hedge: bool,
    ) -> None:
        """Note the cancelled side of a hedge race in the request's tree."""
        self.session.log.emit(
            "info", "hedge-loser-cancelled",
            f"cancelled the losing "
            f"{'hedge' if loser_was_hedge else 'original'} of a hedged "
            f"{task[0]} request",
            trace_id=context.trace_id if context else "",
            kind=task[0],
            loser="hedge" if loser_was_hedge else "original",
        )
        if context is None or not self.session.tracer.enabled:
            return
        self.session.tracer.events.append(
            TraceEvent(
                name="serve:hedge-loser-cancelled",
                start_ns=time.perf_counter_ns(),
                duration_ns=0,
                depth=1,
                args={
                    "kind": task[0],
                    "loser": "hedge" if loser_was_hedge else "original",
                },
                trace_id=context.trace_id,
                span_id=new_span_id(),
                parent_id=context.span_id,
            )
        )

    def _sync_breaker(self) -> None:
        """Mirror the breaker state onto the service for ``stats``/top."""
        if self.service is not None:
            self.service.breaker_state = self.breaker.state

    def _count_failure(self) -> None:
        tripped = self.breaker.record_failure()
        self._sync_breaker()
        if tripped:
            _BREAKER_TRIPS.resolve(self.session.stats).add()
            self.session.remarks.recovery(
                "resilience",
                f"circuit breaker tripped open after "
                f"{self.breaker.consecutive_failures} consecutive service "
                f"failures; cooling down "
                f"{self.breaker.cooldown_seconds:g}s",
                breaker_trips=self.breaker.trips,
            )
            self.session.log.emit(
                "error", "breaker-trip",
                f"circuit breaker opened after "
                f"{self.breaker.consecutive_failures} consecutive failures",
                trips=self.breaker.trips,
            )

    # -- the degradation ladder ----------------------------------------

    def _run_degraded(
        self,
        task: TaskSpec,
        cause: Optional[BaseException] = None,
        context: Optional[TraceContext] = None,
    ) -> Tuple[object, TaskTelemetry]:
        """Rungs below the service: local pool, then serial in-process.

        ``context`` (when tracing) follows the task down the ladder, so
        the rung that finally runs it — local-pool worker or the serial
        fallback right here — still parents its spans into the same
        ``client:request`` tree as the failed service attempts.
        """
        kind, payload, shard_key, weight = task
        _DEGRADED.resolve(self.session.stats).add()
        detail = (
            f"{type(cause).__name__}: {cause}"
            if cause is not None
            else "service unavailable or circuit open"
        )
        if self.policy.local_pool_workers > 0 and not self._local_failed:
            try:
                local = self._ensure_local_service()
                future = local.submit(
                    kind, payload, shard_key=shard_key, weight=weight,
                    trace=context,
                )
                result = future.result()
            except ServiceError as exc:
                self._local_failed = True
                detail = (
                    f"{detail}; local pool failed with "
                    f"{type(exc).__name__}"
                )
            else:
                self.session.remarks.recovery(
                    "resilience",
                    f"degraded {kind} task to the ephemeral local pool "
                    f"({detail})",
                    task_kind=kind,
                    rung="local-pool",
                )
                self.session.log.emit(
                    "warn", "degrade",
                    f"degraded {kind} task to the ephemeral local pool",
                    trace_id=context.trace_id if context else "",
                    kind=kind,
                    rung="local-pool",
                    cause=detail,
                )
                return result, future.telemetry
        self.session.remarks.recovery(
            "resilience",
            f"degraded {kind} task to serial in-process execution "
            f"({detail})",
            task_kind=kind,
            rung="serial",
        )
        self.session.log.emit(
            "warn", "degrade",
            f"degraded {kind} task to serial in-process execution",
            trace_id=context.trace_id if context else "",
            kind=kind,
            rung="serial",
            cause=detail,
        )
        return self._run_serial(kind, payload, context)

    def _ensure_local_service(self) -> CompileService:
        with self._lock:
            if self._local_service is None:
                # A *fresh* session so armed faults in the caller's
                # session can't follow the work down the ladder — the
                # local pool models a healthy replacement, like a
                # respawned worker.  Only the tracer is the caller's, so
                # the rung's request and worker spans land in the
                # caller's trace directly.
                local_session = CompilerSession(
                    name="resilience-local", tracer=self.session.tracer
                )
                self._local_service = CompileService(
                    workers=self.policy.local_pool_workers,
                    session=local_session,
                    name="resilience-local",
                ).start()
            return self._local_service

    def _run_serial(
        self,
        kind: str,
        payload: object,
        context: Optional[TraceContext] = None,
    ) -> Tuple[object, TaskTelemetry]:
        """Last rung: run the task right here, no processes involved.

        The task runs under the same producer a worker uses, in-process:
        traced like a worker task (a ``serial:task`` root parented into
        the request context; pid stays 0 — this *is* the client process)
        and absorbed into the caller's session, also when it raises.
        """
        from .tasks import WorkerState, run_task

        with self._lock:
            if self._serial_state is None:
                self._serial_state = WorkerState(
                    index=-1,
                    session=CompilerSession(name="resilience-serial"),
                )
            state = self._serial_state
        attempt = context.attempt if context is not None else 0
        try:
            with task_session(
                state.session, self.session.channels(), trace=context
            ) as telemetry:
                with current_tracer().span(
                    "serial:task", kind=kind, attempt=attempt
                ):
                    result = run_task(kind, payload, state)
        finally:
            self.session.absorb(telemetry)
        return result, telemetry
