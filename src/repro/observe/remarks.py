"""Structured optimization remarks — the repro's ``-Rpass`` /
``-fsave-optimization-record``.

Every vectorization decision point emits a :class:`Remark`:

* ``passed``   — a transformation was applied (graph vectorized,
  reduction emitted, ...);
* ``missed``   — a transformation was attempted and rejected, with the
  reason (cost, unschedulable seed, gathers, ...);
* ``analysis`` — supporting facts that explain a decision (partial
  gathers inside a *vectorized* graph, Super-Node shapes, ...);
* ``recovery`` — the guarded driver rolled back a failing phase and
  degraded (skipped the phase or descended the config ladder) instead of
  aborting the compile; ``args`` carries phase/config/kind/action.

Each remark carries the pass name, function, block and seed kind plus a
free-form ``args`` dict, and the collection serializes to JSONL (one
remark per line) so external tooling can consume it exactly like clang's
optimization records.

Collection is off by default; :meth:`RemarkCollector.emit` is a single
branch when disabled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: the remark kinds: clang's -Rpass / -Rpass-missed / -Rpass-analysis
#: triple, plus "recovery" for the guarded driver's rollback records
REMARK_KINDS = ("passed", "missed", "analysis", "recovery")


@dataclass
class Remark:
    """One structured optimization remark."""

    kind: str  # "passed" | "missed" | "analysis"
    pass_name: str  # e.g. "slp", "supernode", "reduction", "minmax"
    message: str
    function: str = ""
    block: str = ""
    #: what seeded the attempt: "store", "reduction", "minmax", ...
    seed: str = ""
    args: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "kind": self.kind,
            "pass": self.pass_name,
            "message": self.message,
        }
        if self.function:
            record["function"] = self.function
        if self.block:
            record["block"] = self.block
        if self.seed:
            record["seed"] = self.seed
        if self.args:
            record["args"] = self.args
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Remark":
        return cls(
            kind=str(record["kind"]),
            pass_name=str(record["pass"]),
            message=str(record["message"]),
            function=str(record.get("function", "")),
            block=str(record.get("block", "")),
            seed=str(record.get("seed", "")),
            args=dict(record.get("args", {})),  # type: ignore[arg-type]
        )


class RemarkCollector:
    """Accumulates remarks; serializes them as JSONL."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.remarks: List[Remark] = []

    # -- emission ----------------------------------------------------------

    def emit(
        self,
        kind: str,
        pass_name: str,
        message: str,
        function: str = "",
        block: str = "",
        seed: str = "",
        **args: object,
    ) -> Optional[Remark]:
        if not self.enabled:
            return None
        assert kind in REMARK_KINDS, kind
        remark = Remark(
            kind=kind,
            pass_name=pass_name,
            message=message,
            function=function,
            block=block,
            seed=seed,
            args=args,
        )
        self.remarks.append(remark)
        return remark

    def passed(self, pass_name: str, message: str, **kw: object) -> Optional[Remark]:
        return self.emit("passed", pass_name, message, **kw)  # type: ignore[arg-type]

    def missed(self, pass_name: str, message: str, **kw: object) -> Optional[Remark]:
        return self.emit("missed", pass_name, message, **kw)  # type: ignore[arg-type]

    def analysis(self, pass_name: str, message: str, **kw: object) -> Optional[Remark]:
        return self.emit("analysis", pass_name, message, **kw)  # type: ignore[arg-type]

    def recovery(self, pass_name: str, message: str, **kw: object) -> Optional[Remark]:
        return self.emit("recovery", pass_name, message, **kw)  # type: ignore[arg-type]

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self.remarks.clear()

    # -- queries -----------------------------------------------------------

    def of_kind(self, kind: str) -> List[Remark]:
        return [remark for remark in self.remarks if remark.kind == kind]

    # -- JSONL serialization ----------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(remark.to_dict(), sort_keys=True) + "\n"
            for remark in self.remarks
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())


def load_remarks(path: str) -> List[Remark]:
    """Parse a remarks JSONL file back into :class:`Remark` objects."""
    remarks: List[Remark] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                remarks.append(Remark.from_dict(json.loads(line)))
    return remarks
