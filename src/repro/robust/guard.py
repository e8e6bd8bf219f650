"""Guarded compilation driver: fault isolation with graceful degradation.

``compile_module`` is all-or-nothing: any bug in the simplify → unroll →
vectorize chain aborts the whole compile.  :func:`guarded_compile` runs
``compile_module`` itself with a per-phase envelope installed
(:func:`repro.vectorizer.pipeline.phase_envelope`), so there is one
phase loop and the driver *always* returns runnable, verified IR:

* the input is verified once on entry (it comes from outside the
  driver; an unverifiable input raises before any rung runs);
* every phase runs against a pre-phase snapshot (``clone_module``) under
  an optional wall-clock budget, and the IR verifier gates the result;
* on exception, verifier failure, or budget blowout the module rolls
  back to the snapshot and a structured :class:`RecoveryRecord` (plus a
  ``recovery`` remark and STAT counters) is recorded;
* mid-end phases (simplify/unroll) are *skipped* and the attempt
  continues; a vectorize failure abandons the attempt and the driver
  descends a configurable **degradation ladder**
  (SN-SLP → LSLP → SLP → O3) until a configuration compiles clean;
* if even the last rung fails, the pristine clone of the input module is
  returned (scalar, unoptimized — but runnable).

The first crash-class failure is captured (snapshot + context) so
:mod:`repro.robust.bundle` can write a reduced ``failure-NNNN/`` bundle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.module import Module
from ..ir.printer import print_module
from ..ir.verifier import VerificationError
from ..machine.targets import DEFAULT_TARGET, TargetMachine
from ..observe import STAT
from ..observe.session import (
    CompilerSession,
    current_metrics,
    current_remarks,
    current_session,
    current_stats,
    use_session,
)
from ..vectorizer import pipeline
from ..vectorizer.pipeline import CompilationResult, PhaseFn
from ..vectorizer.report import VectorizationReport
from ..vectorizer.slp import SLPConfig, SNSLP_CONFIG, config_named

#: default degradation ladder, strongest transform first
DEFAULT_LADDER: Tuple[str, ...] = ("SN-SLP", "LSLP", "SLP", "O3")

_GUARDED = STAT("robust.guarded-compiles", "guarded compilations run")
_RECOVERIES = STAT("robust.recoveries", "phase failures recovered")
_PHASE_SKIPS = STAT("robust.phase-skips", "mid-end phases skipped after rollback")
_DESCENTS = STAT("robust.ladder-descents", "degradation ladder descents")
_BUDGETS = STAT("robust.budget-blowouts", "phase budgets exceeded")
_VERIFIER_ROLLBACKS = STAT(
    "robust.verifier-rollbacks", "post-phase verifier failures rolled back"
)
_EXCEPTION_ROLLBACKS = STAT(
    "robust.exception-rollbacks", "phase exceptions rolled back"
)
_PRISTINE = STAT(
    "robust.pristine-fallbacks", "compiles served by the pristine input clone"
)


@dataclass
class RecoveryRecord:
    """One rolled-back phase failure and what the driver did about it."""

    phase: str
    config: str
    kind: str  # "exception" | "verifier" | "budget"
    action: str  # "skip-phase" | "descend-ladder" | "pristine-fallback"
    detail: str = ""
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "config": self.config,
            "kind": self.kind,
            "action": self.action,
            "detail": self.detail,
            "seconds": self.seconds,
        }


@dataclass
class CrashCapture:
    """Context of the first crash-class failure, for bundle writing."""

    config: str
    phase: str
    kind: str  # "exception" | "verifier"
    detail: str
    #: textual IR of the module as it entered the failing phase
    snapshot_text: str


@dataclass
class GuardedResult:
    """Outcome of one guarded compilation — always runnable IR."""

    result: CompilationResult
    requested_config: str
    config_used: str
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    crash: Optional[CrashCapture] = None
    bundle_dir: Optional[str] = None

    @property
    def degraded(self) -> bool:
        return self.config_used != self.requested_config

    @property
    def recovered(self) -> bool:
        return bool(self.recoveries)

    def summary(self) -> str:
        lines = [
            f"guarded compile: requested {self.requested_config}, "
            f"used {self.config_used}"
            + (" (degraded)" if self.degraded else "")
        ]
        for rec in self.recoveries:
            lines.append(
                f"  recovery[{rec.config}/{rec.phase}] {rec.kind} -> "
                f"{rec.action}: {rec.detail}"
            )
        if self.bundle_dir:
            lines.append(f"  crash bundle: {self.bundle_dir}")
        return "\n".join(lines)


def resolve_ladder(
    requested: SLPConfig, ladder: Optional[Sequence[str]] = None
) -> List[SLPConfig]:
    """The rungs to try: ``requested`` first, then every strictly weaker
    rung of ``ladder`` (default :data:`DEFAULT_LADDER`)."""
    names = list(ladder) if ladder is not None else list(DEFAULT_LADDER)
    configs = [config_named(name) for name in names]
    if any(c.name == requested.name for c in configs):
        index = next(
            i for i, c in enumerate(configs) if c.name == requested.name
        )
        return configs[index:]
    return [requested] + configs


def _classify(exc: BaseException) -> Tuple[str, str]:
    if isinstance(exc, VerificationError):
        return "verifier", str(exc)
    return "exception", f"{type(exc).__name__}: {exc}"


def guarded_compile(
    module: Module,
    config: SLPConfig = SNSLP_CONFIG,
    target: TargetMachine = DEFAULT_TARGET,
    unroll_factor: int = 0,
    ladder: Optional[Sequence[str]] = None,
    phase_budget_seconds: Optional[float] = None,
    bundle_dir: Optional[str] = None,
    session: Optional[CompilerSession] = None,
) -> GuardedResult:
    """Compile ``module`` under ``config``, degrading instead of dying.

    Each rung is one :func:`repro.vectorizer.pipeline.compile_module`
    run (same clone, phases, timings, counters) with the guard's
    :class:`_Envelope` around every phase, so in-pipeline faults never
    escape: the returned :class:`GuardedResult` always holds verified IR,
    at worst the pristine scalar clone of the input.  The input itself
    comes from outside the driver and is verified once on entry; an
    unverifiable input raises :class:`VerificationError` before any rung
    runs, since no rung could repair it.

    Runs in ``session`` when given, else in an ephemeral fresh-stats
    child of the ambient session, so ``result.counters`` is exactly this
    guarded compile's counters (including the ``robust.*`` recovery
    counters) and nothing bleeds into other compilations.  Faults armed
    on the ambient session's injector stay armed inside: derived
    sessions share their parent's injector.
    """
    pipeline.verify_module(module)
    own = session if session is not None else current_session().derive(
        name=f"guard:{config.name}"
    )
    outcome = GuardedResult(
        result=None,  # type: ignore[arg-type]  # filled below, always
        requested_config=config.name,
        config_used=config.name,
    )
    with use_session(own), own.metrics.timer(
        "guard.compile.seconds", "wall seconds per guarded compilation"
    ):
        _GUARDED.add()
        for rung in resolve_ladder(config, ladder):
            envelope = _Envelope(outcome, rung, phase_budget_seconds)
            try:
                with pipeline.phase_envelope(envelope):
                    outcome.result = pipeline.compile_module(
                        module, rung, target, unroll_factor, session=own
                    )
            except _Descend:
                continue
            except Exception as exc:  # noqa: BLE001 - even the clone is guarded
                # Only the clone runs outside the envelope (the final
                # verify sees a state some envelope already verified).
                kind, detail = _classify(exc)
                _record_failure(
                    outcome, rung, "clone", kind, detail, 0.0, "descend-ladder"
                )
                continue
            outcome.config_used = rung.name
            break
        else:
            outcome.result = _pristine(module, config, outcome)
            outcome.config_used = "pristine"

        if bundle_dir is not None and outcome.crash is not None:
            from .bundle import write_crash_bundle

            outcome.bundle_dir = write_crash_bundle(
                bundle_dir,
                module,
                outcome,
                target=target,
                unroll_factor=unroll_factor,
            )
    return outcome


class _Descend(Exception):
    """Internal: the vectorize phase failed; try the next ladder rung."""


@dataclass
class _Envelope:
    """The guard's per-phase policy for one rung, run by
    :func:`~repro.vectorizer.pipeline.compile_module` around each phase.

    The phase runs against a pre-phase snapshot under the optional wall
    budget, and the IR verifier gates what it commits.  On exception,
    verifier failure or budget blowout the module rolls back to the
    snapshot and a :class:`RecoveryRecord` is kept; a mid-end phase is
    then skipped, while a vectorize failure abandons the rung.
    """

    outcome: GuardedResult
    config: SLPConfig
    budget: Optional[float]

    def __call__(
        self, name: str, fn: PhaseFn, working: Module
    ) -> Tuple[Module, Optional[VectorizationReport]]:
        snapshot = pipeline.clone_module(working)
        started = time.perf_counter()
        try:
            out = fn(working)
            elapsed = time.perf_counter() - started
            if self.budget is not None and elapsed > self.budget:
                kind, detail = (
                    "budget",
                    f"phase ran {elapsed:.3f}s, budget {self.budget:g}s",
                )
            else:
                # the verify gate: a phase may only commit verified IR
                pipeline.verify_module(working)
                return working, out
        except Exception as exc:  # noqa: BLE001 - isolate any phase fault
            kind, detail = _classify(exc)

        seconds = time.perf_counter() - started
        if kind != "budget" and self.outcome.crash is None:
            self.outcome.crash = CrashCapture(
                config=self.config.name,
                phase=name,
                kind=kind,
                detail=detail,
                snapshot_text=print_module(snapshot),
            )
        descend = name == "vectorize"
        _record_failure(
            self.outcome, self.config, name, kind, detail, seconds,
            "descend-ladder" if descend else "skip-phase",
        )
        if descend:
            raise _Descend()
        return snapshot, None  # roll back to the pre-phase checkpoint


def _pristine(
    module: Module, config: SLPConfig, outcome: GuardedResult
) -> CompilationResult:
    """Every rung failed: serve a clone of the input, scalar and
    unoptimized but runnable."""
    started = time.perf_counter()
    working = pipeline.clone_module(module)
    cloned = time.perf_counter()
    # Cannot fail: the input verified on entry and the clone is a
    # structural copy of it.
    pipeline.verify_module(working)
    phases = {"clone": cloned - started, "verify": time.perf_counter() - cloned}
    _PRISTINE.add()
    _record(
        outcome,
        RecoveryRecord(
            phase="pipeline",
            config=config.name,
            kind="exception",
            action="pristine-fallback",
            detail="degradation ladder exhausted; returning input clone",
        ),
    )
    return CompilationResult(
        module=working,
        report=VectorizationReport(config_name="pristine"),
        compile_seconds=sum(phases.values()),
        phase_seconds=phases,
        counters=current_stats().snapshot(),
    )


def _record_failure(
    outcome: GuardedResult,
    config: SLPConfig,
    phase: str,
    kind: str,
    detail: str,
    seconds: float,
    action: str,
) -> None:
    record = RecoveryRecord(
        phase=phase,
        config=config.name,
        kind=kind,
        action=action,
        detail=detail,
        seconds=seconds,
    )
    if kind == "budget":
        _BUDGETS.add()
    elif kind == "verifier":
        _VERIFIER_ROLLBACKS.add()
    else:
        _EXCEPTION_ROLLBACKS.add()
    current_metrics().observe(
        "guard.recovery.seconds", seconds,
        description="wall seconds lost to a rolled-back phase",
    )
    if action == "skip-phase":
        _PHASE_SKIPS.add()
    elif action == "descend-ladder":
        _DESCENTS.add()
    _record(outcome, record)


def _record(outcome: GuardedResult, record: RecoveryRecord) -> None:
    _RECOVERIES.add()
    outcome.recoveries.append(record)
    current_remarks().recovery(
        "guard",
        f"{record.kind} in phase {record.phase} under {record.config}: "
        f"rolled back, {record.action}",
        phase=record.phase,
        config=record.config,
        fault_kind=record.kind,
        action=record.action,
        detail=record.detail,
    )
