"""Interpreter and memory model tests."""

import math

import pytest

from repro.interp import Interpreter, InterpreterError, Memory, MemoryError_, TrapError, run_kernel
from repro.interp.memory import _scalar_size
from repro.ir import (
    F32,
    F64,
    I8,
    I64,
    VOID,
    CmpPredicate,
    Constant,
    Function,
    IRBuilder,
    Module,
    Opcode,
    vector_of,
)
from conftest import build_simple_store_module


class TestMemory:
    def test_scalar_round_trip(self):
        mem = Memory()
        addr = mem.allocate(64)
        mem.store_scalar(addr, I64, -123456789)
        assert mem.load_scalar(addr, I64) == -123456789
        mem.store_scalar(addr, F64, 2.5)
        assert mem.load_scalar(addr, F64) == 2.5

    def test_f32_storage_rounds(self):
        mem = Memory()
        addr = mem.allocate(16)
        mem.store_scalar(addr, F32, 0.1)
        assert mem.load_scalar(addr, F32) != 0.1
        assert math.isclose(mem.load_scalar(addr, F32), 0.1, rel_tol=1e-6)

    def test_int_storage_wraps(self):
        mem = Memory()
        addr = mem.allocate(16)
        mem.store_scalar(addr, I8, 300)
        assert mem.load_scalar(addr, I8) == 44

    def test_vector_round_trip(self):
        mem = Memory()
        vt = vector_of(F64, 4)
        addr = mem.allocate(64)
        mem.store_value(addr, vt, (1.0, 2.0, 3.0, 4.0))
        assert mem.load_value(addr, vt) == (1.0, 2.0, 3.0, 4.0)

    def test_vector_overlays_scalars(self):
        # A vector store must be observable via scalar loads: this is the
        # property that makes vector-load codegen correct.
        mem = Memory()
        vt = vector_of(I64, 2)
        addr = mem.allocate(64)
        mem.store_value(addr, vt, (7, 8))
        assert mem.load_scalar(addr, I64) == 7
        assert mem.load_scalar(addr + 8, I64) == 8

    def test_out_of_bounds(self):
        mem = Memory(size=256)
        with pytest.raises(MemoryError_):
            mem.load_scalar(1024, I64)
        with pytest.raises(MemoryError_):
            mem.load_scalar(0, I64)  # null page

    def test_oom(self):
        mem = Memory(size=128)
        with pytest.raises(MemoryError_):
            mem.allocate(4096)

    def test_global_binding_and_initializer(self):
        module = Module("m")
        module.add_global("A", I64, 4, [1, 2, 3, 4])
        interp = Interpreter(module)
        assert interp.read_global("A") == [1, 2, 3, 4]

    def test_write_global_length_checked(self):
        module = Module("m")
        module.add_global("A", I64, 2)
        interp = Interpreter(module)
        with pytest.raises(MemoryError_):
            interp.write_global("A", [1, 2, 3])


def _binary_function(opcode_name, type_=F64, ret=F64):
    module = Module("m")
    function = Function("f", [("a", type_), ("b", type_)], ret)
    module.add_function(function)
    builder = IRBuilder(function.add_block("entry"))
    result = getattr(builder, opcode_name)(*function.arguments)
    builder.ret(result)
    return module


class TestScalarExecution:
    def test_arith(self):
        assert Interpreter(_binary_function("fadd")).run("f", [1.5, 2.0]) == 3.5
        assert Interpreter(_binary_function("fdiv")).run("f", [1.0, 4.0]) == 0.25
        assert Interpreter(_binary_function("sub", I64, I64)).run("f", [3, 10]) == -7

    def test_integer_wrap_on_execution(self):
        module = _binary_function("add", I64, I64)
        huge = (1 << 63) - 1
        assert Interpreter(module).run("f", [huge, 1]) == -(1 << 63)

    def test_sdiv_by_zero_traps(self):
        module = _binary_function("sdiv", I64, I64)
        with pytest.raises(TrapError):
            Interpreter(module).run("f", [1, 0])

    def test_store_load_via_globals(self):
        module = build_simple_store_module(num_lanes=2)
        out = run_kernel(
            module, "kernel", [0],
            inputs={"B": [1.0] * 64, "C": [2.0] * 64},
        )
        assert out["A"][0] == 3.0 and out["A"][1] == 3.0
        assert out["A"][2] == 0.0

    def test_wrong_arity_rejected(self):
        module = _binary_function("fadd")
        with pytest.raises(InterpreterError):
            Interpreter(module).run("f", [1.0])

    def test_intrinsics(self):
        module = Module("m")
        function = Function("f", [("x", F64)], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.call("sqrt", [function.arguments[0]]))
        assert Interpreter(module).run("f", [9.0]) == 3.0

    def test_select_and_cmp(self):
        module = Module("m")
        function = Function("f", [("a", I64), ("b", I64)], I64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        a, b = function.arguments
        cond = builder.icmp(CmpPredicate.LT, a, b)
        builder.ret(builder.select(cond, a, b))
        assert Interpreter(module).run("f", [3, 7]) == 3
        assert Interpreter(module).run("f", [9, 7]) == 7

    def test_casts(self):
        module = Module("m")
        function = Function("f", [("n", I64)], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.sitofp(function.arguments[0], F64))
        assert Interpreter(module).run("f", [5]) == 5.0


class TestVectorExecution:
    def test_vector_arith_and_movement(self):
        module = Module("m")
        vt = vector_of(F64, 2)
        function = Function("f", [("v", vt)], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        v = function.arguments[0]
        doubled = builder.fadd(v, v)
        swapped = builder.shufflevector(doubled, doubled, [1, 0])
        alt = builder.altbinop([Opcode.FADD, Opcode.FSUB], doubled, swapped)
        builder.ret(builder.extractelement(alt, 0))
        # doubled=(2,4) swapped=(4,2) alt=(2+4, 4-2) -> lane0 = 6
        assert Interpreter(module).run("f", [(1.0, 2.0)]) == 6.0

    def test_insertelement_functional(self):
        module = Module("m")
        vt = vector_of(I64, 2)
        function = Function("f", [("v", vt)], vt)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        updated = builder.insertelement(function.arguments[0], Constant(I64, 9), 1)
        builder.ret(updated)
        assert Interpreter(module).run("f", [(1, 2)]) == (1, 9)

    def test_out_of_range_lane_traps(self):
        module = Module("m")
        vt = vector_of(I64, 2)
        function = Function("f", [("v", vt), ("lane", I64)], I64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        # use the i64 lane arg directly (interpreter checks bounds)
        from repro.ir.instructions import ExtractElementInst

        ext = builder.insert(ExtractElementInst(function.arguments[0], function.arguments[1]))
        builder.ret(ext)
        with pytest.raises(TrapError):
            Interpreter(module).run("f", [(1, 2), 5])


class TestControlFlow:
    def test_loop_executes_n_times(self):
        module = build_loop_module()
        out = run_kernel(module, "count", [10])
        assert out["A"][:10] == list(range(10))

    def test_instruction_budget(self):
        module = build_loop_module()
        interp = Interpreter(module, max_steps=50)
        with pytest.raises(InterpreterError, match="budget"):
            interp.run("count", [10**9])

    def test_entry_phi_rejected(self):
        module = Module("m")
        function = Function("f", [], VOID)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.phi(I64)
        builder.ret()
        with pytest.raises(InterpreterError):
            Interpreter(module).run("f", [])


def build_loop_module() -> Module:
    """for i in range(n): A[i] = i"""
    module = Module("loop")
    module.add_global("A", I64, 64)
    function = Function("count", [("n", I64)], VOID)
    module.add_function(function)
    entry = function.add_block("entry")
    header = function.add_block("header")
    body = function.add_block("body")
    done = function.add_block("done")
    b = IRBuilder(entry)
    b.br(header)
    b.position_at_end(header)
    i = b.phi(I64, "i")
    cond = b.icmp(CmpPredicate.LT, i, function.arguments[0])
    b.condbr(cond, body, done)
    b.position_at_end(body)
    b.store(i, b.gep(module.global_named("A"), i))
    inc = b.add(i, b.const_i64(1))
    b.br(header)
    i.add_incoming(b.const_i64(0), entry)
    i.add_incoming(inc, body)
    b.position_at_end(done)
    b.ret()
    return module


class TestArgumentCoercion:
    def test_global_buffer_as_pointer_argument(self):
        from repro.ir import pointer_to

        module = Module("m")
        module.add_global("A", F64, 8, [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
        function = Function("f", [("p", pointer_to(F64))], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        loaded = builder.load(builder.gep(function.arguments[0], 2))
        builder.ret(loaded)
        interp = Interpreter(module)
        buffer = module.global_named("A")
        assert interp.run("f", [buffer]) == 3.0

    def test_integer_argument_wraps(self):
        module = Module("m")
        function = Function("f", [("n", I8)], I8)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(function.arguments[0])
        assert Interpreter(module).run("f", [300]) == 44

    def test_vector_argument_coerced_to_tuple(self):
        module = Module("m")
        vt = vector_of(F64, 2)
        function = Function("f", [("v", vt)], vt)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(function.arguments[0])
        assert Interpreter(module).run("f", [[1.0, 2.0]]) == (1.0, 2.0)

    def test_float_argument_coerced(self):
        module = Module("m")
        function = Function("f", [("x", F64)], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(function.arguments[0])
        assert Interpreter(module).run("f", [3]) == 3.0


class TestVectorSelectSemantics:
    def test_per_lane_mask_pick(self):
        from repro.ir import I1

        module = Module("m")
        vt = vector_of(I64, 4)
        mt = vector_of(I1, 4)
        function = Function("f", [("m", mt), ("a", vt), ("b", vt)], vt)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        m, a, b = function.arguments
        builder.ret(builder.select(m, a, b))
        out = Interpreter(module).run(
            "f", [(1, 0, 1, 0), (10, 20, 30, 40), (-1, -2, -3, -4)]
        )
        assert out == (10, -2, 30, -4)
