"""Modules: the top-level IR container (functions + global buffers)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .function import Function
from .types import Type
from .values import GlobalBuffer


class Module:
    """A compilation unit: named global array buffers and functions.

    Global buffers model the C arrays of the paper's kernels (``long A[]``,
    ``double B[]``...); the interpreter materializes them in its flat memory
    at load time.
    """

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalBuffer] = {}

    # -- functions -------------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function name: {function.name}")
        function.parent = self
        self.functions[function.name] = function
        return function

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function named {name} in module {self.name}") from None

    # -- globals ---------------------------------------------------------------

    def add_global(
        self,
        name: str,
        element: Type,
        count: int,
        initializer: Optional[Sequence] = None,
    ) -> GlobalBuffer:
        if name in self.globals:
            raise ValueError(f"duplicate global name: {name}")
        buffer = GlobalBuffer(name, element, count, initializer)
        self.globals[name] = buffer
        return buffer

    def global_named(self, name: str) -> GlobalBuffer:
        try:
            return self.globals[name]
        except KeyError:
            raise KeyError(f"no global named {name} in module {self.name}") from None

    # -- cloning ---------------------------------------------------------------

    def clone(self) -> "Module":
        """Structural deep copy: fresh functions, blocks, instructions.

        The compile pipeline's only copy path
        (:func:`repro.vectorizer.pipeline.clone_module`).  The clone
        prints exactly as the original does (the tests check it against
        a printer→parser round-trip) and
        shares no mutable IR objects with the original: constants are
        re-created (they carry use lists), blocks are constructed
        directly (bypassing ``add_block`` so label names survive
        verbatim), and ``_name_counts`` is copied so post-clone name
        uniquing behaves exactly as it would on the original.

        Forward references (e.g. a phi reading the loop latch's value)
        are cloned through placeholder values that are RAUW-patched once
        the referenced instruction is cloned — the same two-phase scheme
        the textual parser uses.
        """
        from .block import BasicBlock
        from .function import Function
        from .values import Value

        clone = Module(self.name)
        for name, buffer in self.globals.items():
            clone.add_global(
                name,
                buffer.element,
                buffer.count,
                list(buffer.initializer) if buffer.initializer is not None else None,
            )
        for fn in self.functions.values():
            new_fn = Function(
                fn.name,
                [(arg.name, arg.type) for arg in fn.arguments],
                fn.return_type,
                fn.fast_math,
            )
            clone.add_function(new_fn)

            value_map: Dict[int, "Value"] = {
                id(old): new for old, new in zip(fn.arguments, new_fn.arguments)
            }
            for name, buffer in self.globals.items():
                value_map[id(buffer)] = clone.globals[name]
            block_map: Dict[int, BasicBlock] = {}
            for block in fn.blocks:
                new_block = BasicBlock(block.name)
                new_block.parent = new_fn
                new_fn.blocks.append(new_block)
                block_map[id(block)] = new_block
            new_fn._name_counts = dict(fn._name_counts)

            placeholders: Dict[int, "Value"] = {}

            def map_operand(op: "Value") -> "Value":
                from .values import Constant

                mapped = value_map.get(id(op))
                if mapped is not None:
                    return mapped
                if isinstance(op, Constant):
                    fresh = Constant(op.type, op.value)
                    value_map[id(op)] = fresh
                    return fresh
                # an instruction defined later: forward-reference placeholder
                placeholder = placeholders.get(id(op))
                if placeholder is None:
                    placeholder = Value(op.type, op.name)
                    placeholders[id(op)] = placeholder
                return placeholder

            for block in fn.blocks:
                new_block = block_map[id(block)]
                for inst in block.instructions:
                    cloned = _clone_instruction(inst, map_operand, block_map)
                    value_map[id(inst)] = cloned
                    placeholder = placeholders.pop(id(inst), None)
                    if placeholder is not None:
                        placeholder.replace_all_uses_with(cloned)
                    new_block.append(cloned)
            assert not placeholders, (
                f"unresolved forward references cloning {fn.name}: "
                f"{[v.name for v in placeholders.values()]}"
            )
        return clone

    # -- stats -------------------------------------------------------------------

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )


def _clone_instruction(inst, map_operand, block_map):
    """Construct a fresh copy of ``inst`` with mapped operands/targets."""
    from .instructions import (
        AltBinaryInst,
        BinaryInst,
        BranchInst,
        CallInst,
        CastInst,
        CmpInst,
        CondBranchInst,
        ExtractElementInst,
        GepInst,
        InsertElementInst,
        LoadInst,
        PhiInst,
        RetInst,
        SelectInst,
        ShuffleVectorInst,
        StoreInst,
    )

    if isinstance(inst, PhiInst):
        phi = PhiInst(inst.type, inst.name)
        for value, block in zip(inst.operands, inst.incoming_blocks):
            phi.add_incoming(map_operand(value), block_map[id(block)])
        return phi
    if isinstance(inst, AltBinaryInst):
        return AltBinaryInst(
            inst.lane_opcodes,
            map_operand(inst.operand(0)),
            map_operand(inst.operand(1)),
            inst.name,
        )
    if isinstance(inst, CmpInst):
        return CmpInst(
            inst.opcode,
            inst.predicate,
            map_operand(inst.operand(0)),
            map_operand(inst.operand(1)),
            inst.name,
        )
    if isinstance(inst, BinaryInst):
        return BinaryInst(
            inst.opcode,
            map_operand(inst.operand(0)),
            map_operand(inst.operand(1)),
            inst.name,
        )
    if isinstance(inst, LoadInst):
        return LoadInst(map_operand(inst.operand(0)), inst.type, inst.name)
    if isinstance(inst, StoreInst):
        return StoreInst(map_operand(inst.operand(0)), map_operand(inst.operand(1)))
    if isinstance(inst, GepInst):
        return GepInst(
            map_operand(inst.operand(0)), map_operand(inst.operand(1)), inst.name
        )
    if isinstance(inst, InsertElementInst):
        return InsertElementInst(
            map_operand(inst.operand(0)),
            map_operand(inst.operand(1)),
            map_operand(inst.operand(2)),
            inst.name,
        )
    if isinstance(inst, ExtractElementInst):
        return ExtractElementInst(
            map_operand(inst.operand(0)), map_operand(inst.operand(1)), inst.name
        )
    if isinstance(inst, ShuffleVectorInst):
        return ShuffleVectorInst(
            map_operand(inst.operand(0)),
            map_operand(inst.operand(1)),
            inst.mask,
            inst.name,
        )
    if isinstance(inst, SelectInst):
        return SelectInst(
            map_operand(inst.operand(0)),
            map_operand(inst.operand(1)),
            map_operand(inst.operand(2)),
            inst.name,
        )
    if isinstance(inst, CastInst):
        return CastInst(
            inst.opcode, map_operand(inst.operand(0)), inst.type, inst.name
        )
    if isinstance(inst, CallInst):
        return CallInst(
            inst.callee,
            [map_operand(op) for op in inst.operands],
            inst.name,
        )
    if isinstance(inst, CondBranchInst):
        return CondBranchInst(
            map_operand(inst.operand(0)),
            block_map[id(inst.if_true)],
            block_map[id(inst.if_false)],
        )
    if isinstance(inst, BranchInst):
        return BranchInst(block_map[id(inst.target)])
    if isinstance(inst, RetInst):
        value = inst.operand(0) if inst.operands else None
        return RetInst(map_operand(value) if value is not None else None)
    raise AssertionError(f"clone: unhandled instruction class {type(inst).__name__}")
