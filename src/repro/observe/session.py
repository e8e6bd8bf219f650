"""Compiler sessions: explicit, reentrant observability scopes.

A :class:`CompilerSession` bundles the counter registry, tracer and
remark collector (plus the decision journal, metrics, event log, the
fault-injection registry and the benchmark seed) into an explicit
object that every layer threads through.  There are no process-wide
singletons: two interleaved compilations never share counters, which
is what makes the parallel benchmark/fuzz drivers
(:mod:`repro.bench.parallel`) and the compile cache
(:mod:`repro.vectorizer.cache`) possible.

Ambient current session
-----------------------

The ~30 module-scope ``STAT("name", "desc")`` registrations across the
vectorizer cannot receive a session at import time, so the *current*
session is also available ambiently through a :mod:`contextvars`
variable:

* :func:`current_session` returns the active session (falling back to
  :data:`DEFAULT_SESSION` when none was installed);
* :func:`use_session` installs a session for a ``with`` scope —
  per-thread and per-``contextvars`` context, so two threads (or two
  asyncio tasks) can run different sessions concurrently;
* ``STAT(...)`` handles are lazy proxies that resolve
  ``current_session().stats`` at *increment* time, so the same
  module-scope handle records into whichever session is active.

Deriving sessions
-----------------

``session.derive(fresh_stats=True)`` creates a child session with a
fresh counter registry but *shared* tracer, remark collector and fault
registry.  ``compile_module`` runs each compilation in such a child (and
discards it on failure), so a crashing compile cannot poison the next
compilation's counter snapshot, and concurrent compiles never observe
each other's counters.

Code that wants the process default's components reads them off
:data:`DEFAULT_SESSION` (``DEFAULT_SESSION.stats`` et al.); code that
wants whatever is ambient calls :func:`current_session` or one of the
``current_*`` accessors.

Task telemetry
--------------

Work run on a session's behalf — in a service worker or an in-process
fallback — reports back through one pair of calls: :func:`task_session`
runs it in its own session armed with the requester's
``session.channels()`` and fills one picklable :class:`TaskTelemetry`
record; :meth:`CompilerSession.absorb` folds that record in.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .context import TraceContext
from .journal import DecisionJournal
from .log import EventLog
from .metrics import MetricsRegistry
from .remarks import Remark, RemarkCollector
from .stats import StatsRegistry
from .trace import TraceEvent, Tracer

#: the streams a task can be armed with (see :func:`task_session`)
CHANNELS = ("trace", "remarks", "metrics")


@dataclass
class TaskTelemetry:
    """What one task recorded, for the session that asked for the task.

    Produced by :func:`task_session`, consumed by
    :meth:`CompilerSession.absorb`; it pickles as-is, so it crosses the
    worker→parent pipe inside the pool's result envelope.
    """

    #: OS pid of the producing worker; 0 for a task run in this process
    pid: int = 0
    #: pool generation of the producing worker (respawns bump it)
    generation: int = 0
    #: wall seconds spent inside the task scope
    seconds: float = 0.0
    #: non-zero counters the task recorded into its own session
    counters: Dict[str, float] = field(default_factory=dict)
    #: completed spans, stamped with ``pid`` and ``generation``
    spans: List[TraceEvent] = field(default_factory=list)
    remarks: List[Remark] = field(default_factory=list)
    #: the task's registry, when the metrics channel was armed
    metrics: Optional[MetricsRegistry] = None


class CompilerSession:
    """One observability scope: stats + remarks + tracer + journal +
    metrics + event log (+ faults, seed).

    ``faults`` is an opaque slot deliberately untyped here: the fault
    registry lives in :mod:`repro.robust.faults`, which imports this
    module — typing it would create an import cycle.  The slot is bound
    lazily by ``robust.faults.current_faults()`` on first use.
    """

    __slots__ = (
        "name", "stats", "remarks", "tracer", "journal", "metrics",
        "log", "faults", "seed",
    )

    def __init__(
        self,
        name: str = "session",
        stats: Optional[StatsRegistry] = None,
        remarks: Optional[RemarkCollector] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[DecisionJournal] = None,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[EventLog] = None,
        faults: object = None,
        seed: Optional[int] = None,
    ) -> None:
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self.remarks = remarks if remarks is not None else RemarkCollector()
        self.tracer = tracer if tracer is not None else Tracer()
        self.journal = journal if journal is not None else DecisionJournal()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = log if log is not None else EventLog()
        self.faults = faults
        self.seed = seed

    def derive(
        self,
        name: Optional[str] = None,
        fresh_stats: bool = True,
        fresh_remarks: bool = False,
    ) -> "CompilerSession":
        """A child session sharing this session's
        tracer/remarks/journal/metrics/faults.

        ``fresh_stats=True`` (the default) gives the child its own
        counter registry — the isolation ``compile_module`` relies on.
        ``fresh_remarks=True`` additionally gives it a private remark
        collector (used by bundle/artifact writers that must not leak
        remarks into the caller's stream).  The decision journal is
        always shared: like remarks, journal events are a narrative the
        *caller* reads after the fact.  The metrics registry is likewise
        always shared, so histogram observations made in a derived
        compile session accumulate directly into the parent's
        distributions — "merging" child histograms is free.  The event
        log is shared for the same reason: service/ops events are one
        stream per invocation, whoever's child emitted them.
        """
        return CompilerSession(
            name=name or f"{self.name}.child",
            stats=StatsRegistry() if fresh_stats else self.stats,
            remarks=RemarkCollector() if fresh_remarks else self.remarks,
            tracer=self.tracer,
            journal=self.journal,
            metrics=self.metrics,
            log=self.log,
            faults=self.faults,
            seed=self.seed,
        )

    def channels(self) -> Tuple[str, ...]:
        """The :data:`CHANNELS` this session has armed — what a task run
        on its behalf should collect."""
        armed = (self.tracer.enabled, self.remarks.enabled, self.metrics.enabled)
        return tuple(name for name, on in zip(CHANNELS, armed) if on)

    def absorb(self, telemetry: TaskTelemetry) -> None:
        """Fold one task's record into this session.

        Counters add; spans are appended as shipped (already stamped with
        the producing pid and pool generation); remarks are tagged with
        ``worker_pid``; histograms merge bucket-wise.  A stream this
        session does not collect is dropped.
        """
        for name, value in telemetry.counters.items():
            self.stats.stat(name).add(value)
        if self.tracer.enabled:
            self.tracer.events.extend(telemetry.spans)
        if self.remarks.enabled:
            for remark in telemetry.remarks:
                remark.args.setdefault("worker_pid", telemetry.pid)
            self.remarks.remarks.extend(telemetry.remarks)
        if telemetry.metrics is not None and self.metrics.enabled:
            self.metrics.merge(telemetry.metrics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CompilerSession {self.name!r}>"


#: the process default: what ``current_session()`` returns when no
#: session was installed
DEFAULT_SESSION = CompilerSession(name="default")

_CURRENT: contextvars.ContextVar[Optional[CompilerSession]] = contextvars.ContextVar(
    "repro_current_session", default=None
)


def current_session() -> CompilerSession:
    """The ambient session (:data:`DEFAULT_SESSION` if none installed)."""
    session = _CURRENT.get()
    return session if session is not None else DEFAULT_SESSION


@contextmanager
def use_session(session: CompilerSession) -> Iterator[CompilerSession]:
    """Install ``session`` as the ambient current session for a scope."""
    token = _CURRENT.set(session)
    try:
        yield session
    finally:
        _CURRENT.reset(token)


@contextmanager
def task_session(
    base: CompilerSession,
    channels: Sequence[str] = (),
    *,
    pid: int = 0,
    generation: int = 0,
    trace: Optional[TraceContext] = None,
) -> Iterator[TaskTelemetry]:
    """Run one task in its own ambient session; yields its record.

    The task session shares ``base``'s fault registry and arms exactly
    ``channels``; everything else is fresh, so nothing a task records
    lingers in ``base`` (a warm worker's session).  With a ``trace``
    context the tracer is bound to the request, so the first span the
    task opens parents into the request span.  On exit — also when the
    body raises — the record receives the scope's wall seconds, the
    counter snapshot, the spans (stamped with ``pid``/``generation``;
    both stay 0 in the requester's own process), the remarks and, when
    armed, the metrics registry.
    """
    session = CompilerSession(name=f"{base.name}:task", faults=base.faults)
    if "trace" in channels:
        session.tracer.enable()
    if "remarks" in channels:
        session.remarks.enable()
    if "metrics" in channels:
        session.metrics.enable()
    tracer = session.tracer
    telemetry = TaskTelemetry(pid=pid, generation=generation)
    started = time.perf_counter()
    try:
        with use_session(session), tracer.bind(trace):
            yield telemetry
    finally:
        telemetry.seconds = time.perf_counter() - started
        telemetry.counters = session.stats.snapshot()
        for event in tracer.events:
            event.pid = pid
            event.generation = generation
        telemetry.spans = tracer.events
        telemetry.remarks = session.remarks.remarks
        if session.metrics.enabled:
            telemetry.metrics = session.metrics


def current_stats() -> StatsRegistry:
    return current_session().stats


def current_tracer() -> Tracer:
    return current_session().tracer


def current_remarks() -> RemarkCollector:
    return current_session().remarks


def current_journal() -> DecisionJournal:
    return current_session().journal


def current_metrics() -> MetricsRegistry:
    return current_session().metrics


def current_log() -> EventLog:
    return current_session().log
