"""Compilation pipeline: clone a module, vectorize under a configuration.

The benchmark harness compiles *the same kernel* under each configuration;
since the vectorizer mutates IR in place, the pipeline deep-clones the
module first (structurally, via :meth:`repro.ir.module.Module.clone`).

:func:`compile_module` holds the only loop over :func:`pipeline_phases`.
The guarded driver (:mod:`repro.robust.guard`) reuses it by installing a
per-phase envelope (snapshot, phase budget, verify gate, rollback) with
:func:`phase_envelope`; outside such a scope each phase runs bare.

Observability: every phase runs inside a tracer span (`repro.observe`),
its wall time lands in ``CompilationResult.phase_seconds``, and counters
accumulate into a per-compilation :class:`~repro.observe.session.
CompilerSession` — each compile gets its own statistic registry, so
concurrent or interleaved compilations never bleed counters into each
other and no global reset is needed.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..ir.module import Module
from ..ir.verifier import verify_module
from ..machine.targets import DEFAULT_TARGET, TargetMachine
from ..observe.session import (
    CompilerSession,
    current_metrics,
    current_session,
    current_tracer,
    use_session,
)
from .report import VectorizationReport
from .slp import SLPConfig, SLPVectorizer

#: phase names in pipeline order (unroll appears only when requested)
PIPELINE_PHASES = ("clone", "simplify", "unroll", "vectorize", "verify")


def clone_module(module: Module) -> Module:
    """Structural deep copy of ``module`` (:meth:`Module.clone`): a direct
    object-graph copy with no printing or reparsing on the compile path."""
    return module.clone()


@dataclass
class CompilationResult:
    """Outcome of compiling one module under one configuration."""

    module: Module
    report: VectorizationReport
    #: wall-clock seconds spent in the vectorizer + cleanup passes
    #: (kept for compatibility; equals the sum of ``phase_seconds``)
    compile_seconds: float
    #: per-phase wall seconds: clone, simplify, [unroll], vectorize, verify
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: non-zero statistic counters accumulated during this compilation
    counters: Dict[str, float] = field(default_factory=dict)


@contextmanager
def _phase(name: str, phases: Dict[str, float]) -> Iterator[None]:
    """Time one pipeline phase (always), trace it and feed its wall time
    into the session phase-time histogram (each when enabled)."""
    with current_tracer().span(f"phase:{name}"):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            phases[name] = phases.get(name, 0.0) + elapsed
            current_metrics().observe(
                f"phase.{name}.seconds", elapsed,
                description=f"wall seconds per '{name}' pipeline phase",
            )


#: a transform phase: mutates the module in place; the vectorize phase
#: returns its VectorizationReport, the others return None
PhaseFn = Callable[[Module], Optional[VectorizationReport]]


def pipeline_phases(
    config: SLPConfig,
    target: TargetMachine = DEFAULT_TARGET,
    unroll_factor: int = 0,
) -> List[Tuple[str, PhaseFn]]:
    """The transform phases after clone, as (name, fn) pairs.

    This is the single definition of the pipeline's shape; the only
    loop over it is :func:`compile_module`'s.
    """
    from ..passes import simplify_module, unroll_module

    def _simplify(m: Module) -> None:
        simplify_module(m)

    def _unroll(m: Module) -> None:
        unroll_module(m, unroll_factor)

    phases: List[Tuple[str, PhaseFn]] = [("simplify", _simplify)]
    if unroll_factor > 1:
        phases.append(("unroll", _unroll))

    def _vectorize(m: Module) -> VectorizationReport:
        return SLPVectorizer(target, config).run_on_module(m)

    phases.append(("vectorize", _vectorize))
    return phases


#: runs one transform phase on the working module and returns the module
#: to continue with plus the phase's output (see :func:`phase_envelope`)
PhaseEnvelope = Callable[
    [str, PhaseFn, Module], Tuple[Module, Optional[VectorizationReport]]
]

_ENVELOPE: contextvars.ContextVar[Optional[PhaseEnvelope]] = (
    contextvars.ContextVar("repro_phase_envelope", default=None)
)


@contextmanager
def phase_envelope(envelope: PhaseEnvelope) -> Iterator[None]:
    """Run each transform phase of the compiles in this scope through
    ``envelope`` instead of calling it bare.

    The guarded driver installs its checkpoint/rollback policy here, so
    it shares :func:`compile_module`'s clone, phase loop, timing and
    final verify instead of repeating them.  The envelope may return a
    rolled-back module (skipping the phase) or raise to abandon the
    compile.  Scoped per thread/context like :func:`use_session`.
    """
    token = _ENVELOPE.set(envelope)
    try:
        yield
    finally:
        _ENVELOPE.reset(token)


def compile_module(
    module: Module,
    config: SLPConfig,
    target: TargetMachine = DEFAULT_TARGET,
    unroll_factor: int = 0,
    session: Optional[CompilerSession] = None,
) -> CompilationResult:
    """Clone ``module`` and run the configured pipeline over the clone.

    The pipeline is simplify -> [unroll] -> SLP vectorizer -> DCE, run for
    *every* configuration (O3 differs only in the vectorizer being off),
    mirroring how the paper's configurations share the whole -O3 mid-end.
    ``unroll_factor`` > 1 unrolls canonical counted loops first, exposing
    straight-line lanes to SLP for sources written one element per
    iteration.  The result is verified once, after the last phase.

    Counter isolation: with ``session=None`` the compile runs in an
    ephemeral child of the ambient session (fresh statistic registry,
    shared tracer/remarks/faults), so ``CompilationResult.counters``
    holds exactly this compilation's counters and a crashing compile
    discards its partial counters with the child.  Passing an explicit
    ``session`` makes the compile record into it instead; the snapshot
    then reflects whatever else the caller ran in that session.

    ``compile_seconds`` covers the whole compilation — clone (the
    stand-in for the frontend/parsing work of a real compiler), passes,
    and verification — matching the paper's *wall* compile time protocol
    rather than timing the SLP pass in isolation.  It is derived as the
    sum of the per-phase spans in ``phase_seconds``, which attribute the
    same wall time to clone vs. simplify vs. SLP (Fig 11's protocol).
    """
    own = session if session is not None else current_session().derive(
        name=f"compile:{config.name}"
    )
    envelope = _ENVELOPE.get()
    phases: Dict[str, float] = {}
    report: Optional[VectorizationReport] = None
    with use_session(own):
        with current_tracer().span(
            "compile", module=module.name, config=config.name
        ):
            with _phase("clone", phases):
                working = clone_module(module)
            for name, fn in pipeline_phases(config, target, unroll_factor):
                with _phase(name, phases):
                    if envelope is None:
                        out = fn(working)
                    else:
                        working, out = envelope(name, fn, working)
                if name == "vectorize":
                    report = out
            with _phase("verify", phases):
                verify_module(working)
    assert report is not None  # pipeline_phases always yields vectorize
    own.metrics.observe(
        "compile.seconds", sum(phases.values()),
        description="wall seconds per whole compilation",
    )
    return CompilationResult(
        module=working,
        report=report,
        compile_seconds=sum(phases.values()),
        phase_seconds=phases,
        counters=own.stats.snapshot(),
    )
