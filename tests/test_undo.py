"""Tests for the Super-Node undo mechanism (Listing 1, line 53).

When a graph built over massaged code turns out unprofitable, the driver
must restore scalar code equivalent to the original: same opcode multiset,
same simulated cost, same behaviour — so later decisions (and the O3-vs-X
comparisons of the evaluation) see an untouched function.
"""

import collections
import random

import pytest

from repro.interp import Interpreter
from repro.ir import (
    F64,
    I64,
    VOID,
    Function,
    IRBuilder,
    Module,
    Opcode,
    verify_module,
)
from repro.machine import DEFAULT_TARGET
from repro.sim import simulate
from repro.vectorizer import SNSLP_CONFIG, compile_module


def _unprofitable_chain_module() -> Module:
    """Two lanes whose chains form a Super-Node but whose leaves live in
    six different arrays: every load group gathers, so the graph cannot
    be profitable and the massaging must be undone."""
    module = Module("undo")
    for name in "ABCDEFG":
        module.add_global(name, F64, 64)
    function = Function("kernel", [("i", I64)], VOID, fast_math=True)
    module.add_function(function)
    b = IRBuilder(function.add_block("entry"))
    i = function.arguments[0]

    def load(name, off):
        idx = b.add(i, b.const_i64(off)) if off else i
        return b.load(b.gep(module.global_named(name), idx))

    lane0 = b.fadd(b.fsub(load("B", 0), load("C", 0)), load("D", 0))
    b.store(lane0, b.gep(module.global_named("A"), i))
    lane1 = b.fsub(b.fadd(load("E", 1), load("F", 1)), load("G", 1))
    idx1 = b.add(i, b.const_i64(1))
    b.store(lane1, b.gep(module.global_named("A"), idx1))
    b.ret()
    verify_module(module)
    return module


def _opcode_histogram(module: Module):
    counts = collections.Counter()
    for function in module.functions.values():
        for inst in function.instructions():
            counts[inst.opcode] += 1
    return counts


class TestUndo:
    def test_unprofitable_graph_restores_opcode_histogram(self):
        module = _unprofitable_chain_module()
        before = _opcode_histogram(module)
        compiled = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        graphs = compiled.report.all_graphs()
        store_graphs = [g for g in graphs if g.kind == "store"]
        assert store_graphs and not store_graphs[0].vectorized
        assert store_graphs[0].supernodes, "a Super-Node must have formed"
        after = _opcode_histogram(compiled.module)
        assert before == after

    def test_unprofitable_graph_same_simulated_cost(self):
        module = _unprofitable_chain_module()
        inputs = {
            name: [random.Random(3).uniform(-2, 2) for _ in range(64)]
            for name in "BCDEFG"
        }
        original = simulate(module, "kernel", DEFAULT_TARGET, [0], inputs=inputs)
        compiled = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        restored = simulate(
            compiled.module, "kernel", DEFAULT_TARGET, [0], inputs=inputs
        )
        assert restored.cycles == original.cycles
        assert restored.globals_after["A"] == original.globals_after["A"]

    def test_restored_ir_verifies(self):
        module = _unprofitable_chain_module()
        compiled = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        verify_module(compiled.module)

    def test_profitable_graph_not_undone(self):
        # sanity check: the Fig-3 kernel (profitable) keeps its vector code
        from repro.kernels import kernel_named

        kernel = kernel_named("motiv-trunk-reorder")
        compiled = compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
        histogram = _opcode_histogram(compiled.module)
        assert any(
            inst.type.is_vector
            for f in compiled.module.functions.values()
            for inst in f.instructions()
            if inst.opcode is Opcode.LOAD
        )
