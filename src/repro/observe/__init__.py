"""Observability: tracing, statistics and optimization remarks.

The LLVM-style introspection triple for this Python compiler:

* :mod:`repro.observe.trace`   — hierarchical span tracer exporting Chrome
  trace-event JSON (``-time-passes`` / ``-ftime-trace``);
* :mod:`repro.observe.stats`   — named counter registry with
  snapshot/reset semantics (``-stats``);
* :mod:`repro.observe.remarks` — structured passed/missed/analysis
  optimization remarks serialized as JSONL (``-Rpass`` /
  ``-fsave-optimization-record``);
* :mod:`repro.observe.journal` — the decision journal: typed per-graph
  vectorizer decision events (seeds, look-ahead scores, APO reorders,
  cost verdicts) that power ``repro explain``;
* :mod:`repro.observe.metrics` — session-scoped gauges, timers and
  fixed-bucket histograms with Prometheus text exposition
  (``--metrics-out``);
* :mod:`repro.observe.context` — request-scoped :class:`TraceContext`
  (trace id, parent span id, attempt) carried through service envelopes
  so worker spans parent into one cross-process tree per request;
* :mod:`repro.observe.log`     — leveled structured JSONL event log for
  service/ops paths (crashes, retries, degradations), trace-correlated;
* :mod:`repro.observe.profile` — self-time attribution and folded
  flamegraph export over recorded tracer spans (``repro profile``);
* :mod:`repro.observe.history` — the sqlite run-history store with
  trend tables and MAD anomaly gating (``repro history``);
* :mod:`repro.observe.session` — :class:`CompilerSession`, the explicit
  bundle of all of the above that makes compilation reentrant.  Each
  compilation runs in its own derived session, so counters are isolated
  without any global reset and compilations can run concurrently.

All of these are off (or free) by default: the tracer, remark collector
and journal cost one branch per call site while disabled, and counters
are plain attribute increments.  The CLI's ``--trace-out``, ``--stats``,
``--remarks`` and ``--journal`` flags switch them on for the command's
session.

The renderers that *consume* this data — :mod:`repro.observe.dot`
(SLP graph DOT/JSON dumps), :mod:`repro.observe.explain` (per-graph
narratives) and :mod:`repro.observe.report_html` (single-file bench
reports) — are deliberately not re-exported here: they reach into
``repro.vectorizer``, and importing them at package init would create a
cycle (the vectorizer imports ``repro.observe`` for ``STAT``).

There are no process-wide singletons: the default session's components
are ``DEFAULT_SESSION.stats`` / ``.tracer`` / ``.remarks``, and the
ambient ones are reached through :func:`current_session` (see
:mod:`repro.observe.session`).
"""

from .context import (
    TraceContext,
    current_trace_context,
    mint_context,
    new_span_id,
    use_trace_context,
    validate_span_tree,
)
from .trace import TraceEvent, Tracer, load_chrome_trace
from .stats import STAT, STAT_CATALOG, StatProxy, Statistic, StatsRegistry
from .metrics import Histogram, MetricsRegistry, exact_percentile
from .remarks import REMARK_KINDS, Remark, RemarkCollector, load_remarks
from .journal import (
    EVENT_KINDS,
    DecisionJournal,
    JournalEvent,
    load_journal,
    summarize_journal,
)
from .log import LOG_LEVELS, EventLog, LogEvent, load_event_log
from .session import (
    DEFAULT_SESSION,
    CompilerSession,
    current_journal,
    current_log,
    current_metrics,
    current_remarks,
    current_session,
    current_stats,
    current_tracer,
    use_session,
)

__all__ = [
    "Tracer",
    "TraceEvent",
    "TraceContext",
    "mint_context",
    "new_span_id",
    "current_trace_context",
    "use_trace_context",
    "validate_span_tree",
    "load_chrome_trace",
    "STAT",
    "STAT_CATALOG",
    "StatProxy",
    "Statistic",
    "StatsRegistry",
    "Histogram",
    "MetricsRegistry",
    "exact_percentile",
    "REMARK_KINDS",
    "Remark",
    "RemarkCollector",
    "load_remarks",
    "EVENT_KINDS",
    "DecisionJournal",
    "JournalEvent",
    "load_journal",
    "summarize_journal",
    "LOG_LEVELS",
    "EventLog",
    "LogEvent",
    "load_event_log",
    "CompilerSession",
    "DEFAULT_SESSION",
    "current_session",
    "current_stats",
    "current_tracer",
    "current_remarks",
    "current_journal",
    "current_metrics",
    "current_log",
    "use_session",
]
