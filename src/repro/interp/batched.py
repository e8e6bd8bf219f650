"""Batched evaluation engine over pre-decoded execution plans.

The second half of the plan/evaluate split (see :mod:`repro.interp.plan`):
a :class:`BatchedInterpreter` binds a function's cached plan to one flat
register list plus packed memory accessors, then executes whole basic
blocks at a time — one pre-built zero-argument closure per instruction, a
single budget check and a single visit-count increment per block, and
cycle accounting folded to ``visits x pre-summed block cost`` at the end.

Semantics are bit-identical to the reference engine by construction:

* the **fast path** only runs when nothing can observe per-step state —
  no ``on_execute`` hook, no armed fault plan, block provably inside the
  step budget, and exactly-summable cost charges;
* otherwise the block falls back to a **slow path** that ticks per
  instruction in exactly the reference order (count, fault fire, budget
  check, hook, charge), so ``BudgetExceededError`` fires at the same step
  and injected faults see every ``interp.step`` site hit.

Cost accounting lives *in* the engine (``cycles`` / ``instructions`` /
``per_opcode`` attributes) instead of an external ``on_execute`` counter,
which is what makes whole-block accounting possible.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..ir.instructions import Instruction, Opcode
from ..ir.module import Module
from ..ir.types import IntType, PointerType, VectorType
from ..ir.values import Argument, GlobalBuffer
from ..robust.faults import current_faults
from .interpreter import BudgetExceededError, InterpreterError
from .memory import Memory
from .plan import BlockPlan, FunctionPlan, plan_function


class BatchedInterpreter:
    """Executes module functions through cached plans and packed buffers.

    Drop-in behavioural twin of :class:`~repro.interp.interpreter.
    Interpreter`; additionally accounts cycles internally when given a
    ``cost_model`` (the scalar engine needs an external
    :class:`~repro.sim.executor.CycleCounter` for that).
    """

    def __init__(
        self,
        module: Module,
        memory: Optional[Memory] = None,
        max_steps: Optional[int] = None,
        on_execute: Optional[Callable[[Instruction], None]] = None,
        cost_model=None,
    ) -> None:
        self.module = module
        self.memory = memory if memory is not None else Memory()
        self.max_steps = max_steps if max_steps is not None else 50_000_000
        self.on_execute = on_execute
        self.cost_model = cost_model
        self.executed_instructions = 0
        #: internal cycle accounting (populated when ``cost_model`` given)
        self.cycles = 0.0
        self.instructions = 0
        self.per_opcode: Dict[Opcode, float] = {}
        for buffer in module.globals.values():
            self.memory.bind_global(buffer)

    # -- public API ---------------------------------------------------------------

    def run(self, function_name: str, args: Sequence = ()) -> object:
        """Execute a function to completion; returns its return value."""
        function = self.module.function(function_name)
        if len(args) != len(function.arguments):
            raise InterpreterError(
                f"@{function_name} takes {len(function.arguments)} args, "
                f"got {len(args)}"
            )
        plan = plan_function(function, self.cost_model)
        if not plan.blocks:
            function.entry  # raises the reference ValueError
        memory = self.memory
        regs: List[object] = [None] * plan.num_slots
        for slot, payload in plan.const_binds:
            regs[slot] = payload
        for slot, buffer in plan.global_binds:
            regs[slot] = memory.address_of_global(buffer)
        for slot, formal, actual in zip(
            plan.arg_slots, function.arguments, args
        ):
            coerced = self._coerce_argument(formal, actual)
            if slot is not None:
                regs[slot] = coerced
        if plan.entry_has_phis:
            raise InterpreterError(
                f"entry block {plan.blocks[0].name} must not contain phis"
            )
        steps_by_block = [
            [emit(regs, memory) for emit in bp.emits] for bp in plan.blocks
        ]
        visits = [0] * len(plan.blocks)
        try:
            return self._run(plan, regs, steps_by_block, visits)
        finally:
            self._finalize(plan, visits)

    def read_global(self, name: str) -> List:
        return self.memory.read_global(name)

    def write_global(self, name: str, values: Sequence) -> None:
        self.memory.write_global(name, values)

    # -- execution ----------------------------------------------------------------

    def _run(
        self,
        plan: FunctionPlan,
        regs: List[object],
        steps_by_block: List[List[Callable]],
        visits: List[int],
    ):
        blocks = plan.blocks
        budget = self.max_steps
        fast_ok = plan.exact and self.on_execute is None
        faults = current_faults()
        # flattened per-block records: one tuple load per block visit
        # instead of six attribute lookups on the BlockPlan
        bound = [
            (
                bp.phi_dsts if bp.phi_insts else None,
                bp.phi_tables,
                steps_by_block[bp.index],
                bp.count,
                bp.terminator,
                bp.name,
            )
            for bp in blocks
        ]
        executed = self.executed_instructions
        idx = 0
        prev: Optional[BlockPlan] = None
        try:
            while True:
                dsts, tables, steps, count, term, name = bound[idx]
                if fast_ok and not faults.armed and executed + count <= budget:
                    if dsts is not None:
                        table = tables.get(id(prev.block))
                        if table is None:
                            raise KeyError(
                                f"phi has no incoming edge from {prev.name}"
                            )
                        if type(table) is not list:
                            raise table
                        # simultaneous assignment: reads before any write
                        staged = [regs[src] for src in table]
                        for dst, value in zip(dsts, staged):
                            regs[dst] = value
                    for step in steps:
                        step()
                    executed += count
                    visits[idx] += 1
                    kind = term[0]
                    if kind == "br":
                        prev = blocks[idx]
                        idx = term[1]
                    elif kind == "condbr":
                        prev = blocks[idx]
                        idx = term[2] if regs[term[1]] else term[3]
                    elif kind == "ret":
                        return regs[term[1]] if term[1] is not None else None
                    else:
                        raise InterpreterError(f"block {name} fell through")
                else:
                    self.executed_instructions = executed
                    try:
                        transfer = self._run_block_slow(
                            blocks[idx], prev, regs, steps_by_block
                        )
                    finally:
                        # resync even when the slow path raises, or the
                        # outer finally would clobber the ledger with the
                        # stale pre-call count
                        executed = self.executed_instructions
                    kind, payload = transfer
                    if kind == "ret":
                        return payload
                    prev = blocks[idx]
                    idx = payload
        finally:
            self.executed_instructions = executed

    def _run_block_slow(
        self,
        bp: BlockPlan,
        prev: Optional[BlockPlan],
        regs: List[object],
        steps_by_block: List[List[Callable]],
    ):
        """Per-step execution of one block, reference tick order."""
        if bp.phi_insts:
            table = bp.phi_tables.get(id(prev.block))
            if table is None:
                raise KeyError(f"phi has no incoming edge from {prev.name}")
            if isinstance(table, KeyError):
                raise table
            staged = [regs[src] for src in table]
            for dst, value, phi, cost in zip(
                bp.phi_dsts, staged, bp.phi_insts, bp.phi_costs
            ):
                regs[dst] = value
                self._tick_slow(phi, cost)
        for step, inst, cost in zip(
            steps_by_block[bp.index], bp.step_insts, bp.step_costs
        ):
            step()
            self._tick_slow(inst, cost)
        term = bp.terminator
        kind = term[0]
        if kind == "br":
            self._tick_slow(bp.term_inst, bp.term_cost)
            return ("br", term[1])
        if kind == "condbr":
            target = term[2] if regs[term[1]] else term[3]
            self._tick_slow(bp.term_inst, bp.term_cost)
            return ("br", target)
        if kind == "ret":
            value = regs[term[1]] if term[1] is not None else None
            self._tick_slow(bp.term_inst, bp.term_cost)
            return ("ret", value)
        raise InterpreterError(f"block {bp.name} fell through")

    def _tick_slow(self, inst: Instruction, cost: float) -> None:
        self.executed_instructions += 1
        faults = current_faults()
        if faults.armed:
            faults.fire("interp.step", stall=self._stall)
        if self.executed_instructions > self.max_steps:
            raise BudgetExceededError(
                f"step budget exhausted after {self.max_steps} "
                "instructions (likely an infinite loop)"
            )
        if self.on_execute is not None:
            self.on_execute(inst)
        self.cycles += cost
        self.instructions += 1
        self.per_opcode[inst.opcode] = self.per_opcode.get(inst.opcode, 0.0) + cost

    def _stall(self) -> None:
        """Injected stall: burn the remaining step budget so the watchdog
        fires deterministically (no wall-clock dependence)."""
        self.executed_instructions = self.max_steps + 1

    def _finalize(self, plan: FunctionPlan, visits: List[int]) -> None:
        """Fold fast-path visit counts into the cycle totals."""
        per_opcode = self.per_opcode
        for bp, count in zip(plan.blocks, visits):
            if not count:
                continue
            self.cycles += count * bp.cost_total
            self.instructions += count * bp.count
            for opcode, cost in bp.per_opcode.items():
                per_opcode[opcode] = per_opcode.get(opcode, 0.0) + count * cost

    # -- argument coercion (identical to the reference engine) ---------------------

    def _coerce_argument(self, formal: Argument, actual):
        type_ = formal.type
        if isinstance(type_, PointerType):
            if isinstance(actual, GlobalBuffer):
                return self.memory.address_of_global(actual)
            return int(actual)
        if isinstance(type_, IntType):
            return type_.wrap(int(actual))
        if isinstance(type_, VectorType):
            return tuple(actual)
        return float(actual)
