"""Robustness layer: fault injection, opt-bisect, guarded compilation.

* :mod:`repro.robust.faults` — deterministic seeded fault-injection
  registry (``raise`` / ``corrupt`` / ``stall`` at named pipeline sites);
* :mod:`repro.robust.bisect` — ``-opt-bisect-limit``-style decision gate
  plus an automatic first-faulty-decision bisector;
* :mod:`repro.robust.guard`  — checkpointed phases, verify-gated
  rollback and the SN-SLP → LSLP → SLP → O3 degradation ladder;
* :mod:`repro.robust.bundle` — reduced ``failure-NNNN/`` crash bundles.

``faults`` and ``bisect`` are import-light (the vectorizer itself hooks
into them), so they load eagerly; ``guard`` and ``bundle`` depend on the
vectorizer and resolve lazily via module ``__getattr__`` to keep the
import graph acyclic.
"""

from .bisect import BISECT, BisectResult, OptBisect, run_bisect
from .faults import (
    COMPILE_SITES,
    SERVICE_SITES,
    WORKER_SIDE_SITES,
    FAULT_MODES,
    FAULT_SITES,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSite,
    current_faults,
    parse_injection,
    site_named,
)

_LAZY = {
    "guarded_compile": "guard",
    "GuardedResult": "guard",
    "RecoveryRecord": "guard",
    "CrashCapture": "guard",
    "DEFAULT_LADDER": "guard",
    "resolve_ladder": "guard",
    "write_crash_bundle": "bundle",
    "next_bundle_dir": "bundle",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{submodule}", __name__), name)


__all__ = [
    "BISECT", "OptBisect", "BisectResult", "run_bisect",
    "FaultInjector", "FaultPlan", "FaultSite", "FaultError",
    "current_faults",
    "FAULT_SITES", "FAULT_MODES", "COMPILE_SITES",
    "SERVICE_SITES", "WORKER_SIDE_SITES",
    "parse_injection", "site_named",
    "guarded_compile", "GuardedResult", "RecoveryRecord", "CrashCapture",
    "DEFAULT_LADDER", "resolve_ladder",
    "write_crash_bundle", "next_bundle_dir",
]
