"""Engine parity: the batched planned engine vs the scalar reference.

The contract under test is the PR 9 identity guarantee: for every
program both engines produce bit-identical cycle totals, per-opcode
charges, instruction counts, output buffers and oracle verdicts — the
engine choice is purely a throughput knob.  The matrix here runs the
whole kernel suite (unvectorized and under every configuration) plus
seeded fuzz programs, and then pins the edge semantics individually:
NaN propagation through intrinsics, trap messages, vector-lane bounds,
and the step watchdog firing at the exact same instruction.
"""

import math
import os
import struct

import pytest

from repro.fuzz import generate_program, random_spec, run_oracle
from repro.interp import (
    BatchedInterpreter,
    BudgetExceededError,
    Interpreter,
    Memory,
    MemoryError_,
    TrapError,
    default_engine,
    make_interpreter,
    plan_function,
    resolve_engine,
    set_default_engine,
)
from repro.ir import (
    F64,
    I64,
    VOID,
    CmpPredicate,
    Constant,
    Function,
    IRBuilder,
    Module,
    vector_of,
)
from repro.ir.types import pointer_to
from repro.kernels import all_kernels
from repro.kernels.seeding import derive_seed
from repro.machine import DEFAULT_TARGET
from repro.observe.session import CompilerSession, use_session
from repro.sim import simulate
from repro.vectorizer import ALL_CONFIGS, compile_module

import random


def _simulate_both(module, function, args, inputs=None):
    scalar = simulate(
        module, function, DEFAULT_TARGET, args, inputs=inputs, engine="scalar"
    )
    batched = simulate(
        module, function, DEFAULT_TARGET, args, inputs=inputs, engine="batched"
    )
    return scalar, batched


def _assert_identical(scalar, batched):
    assert scalar.cycles == batched.cycles
    assert scalar.instructions == batched.instructions
    assert scalar.per_opcode == batched.per_opcode
    assert scalar.return_value == batched.return_value
    assert scalar.globals_after.keys() == batched.globals_after.keys()
    for name in scalar.globals_after:
        a, b = scalar.globals_after[name], batched.globals_after[name]
        # bit-exact, including NaN payloads and signed zeros
        assert [struct.pack("<d", float(x)) if isinstance(x, float) else x
                for x in a] == \
               [struct.pack("<d", float(y)) if isinstance(y, float) else y
                for y in b], name


class TestEngineSelection:
    def test_resolve_and_default(self):
        assert resolve_engine(None) == default_engine()
        assert resolve_engine("scalar") == "scalar"
        assert resolve_engine("batched") == "batched"
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("jit")
        with pytest.raises(ValueError, match="unknown engine"):
            set_default_engine("jit")

    def test_set_default_engine_is_env_carried(self):
        before = os.environ.get("REPRO_ENGINE")
        try:
            set_default_engine("scalar")
            assert os.environ["REPRO_ENGINE"] == "scalar"
            assert default_engine() == "scalar"
            assert isinstance(make_interpreter(Module("m")), Interpreter)
            set_default_engine("batched")
            assert isinstance(make_interpreter(Module("m")), BatchedInterpreter)
        finally:
            if before is None:
                os.environ.pop("REPRO_ENGINE", None)
            else:
                os.environ["REPRO_ENGINE"] = before

    def test_invalid_env_falls_back(self):
        before = os.environ.get("REPRO_ENGINE")
        try:
            os.environ["REPRO_ENGINE"] = "nonsense"
            assert default_engine() in ("scalar", "batched")
        finally:
            if before is None:
                os.environ.pop("REPRO_ENGINE", None)
            else:
                os.environ["REPRO_ENGINE"] = before


class TestIdentityMatrix:
    @pytest.mark.parametrize(
        "kernel", all_kernels(), ids=lambda k: k.name
    )
    def test_kernel_suite_unvectorized(self, kernel):
        module = kernel.build()
        inputs = kernel.make_inputs(random.Random(20190216))
        scalar, batched = _simulate_both(
            module, kernel.function, [kernel.trip_count], inputs
        )
        _assert_identical(scalar, batched)

    @pytest.mark.parametrize(
        "kernel", all_kernels(), ids=lambda k: k.name
    )
    def test_kernel_suite_all_configs(self, kernel):
        inputs = kernel.make_inputs(random.Random(20190216))
        for config in ALL_CONFIGS:
            compiled = compile_module(kernel.build(), config, DEFAULT_TARGET)
            scalar, batched = _simulate_both(
                compiled.module, kernel.function, [kernel.trip_count], inputs
            )
            _assert_identical(scalar, batched)

    def test_fuzz_program_verdicts(self):
        for index in range(6):
            spec = random_spec(derive_seed(0, f"engine-identity/{index}"))
            program = generate_program(spec)
            verdicts = {}
            for engine in ("scalar", "batched"):
                report = run_oracle(program, engine=engine)
                verdicts[engine] = (
                    report.reference_trapped,
                    [
                        (o.config, o.status, o.detail, o.cycles,
                         o.vectorized_graphs)
                        for o in report.outcomes
                    ],
                )
            assert verdicts["scalar"] == verdicts["batched"], spec


class TestEdgeSemantics:
    def _unary_intrinsic(self, callee):
        module = Module("m")
        function = Function("f", [("x", F64)], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.call(callee, [function.arguments[0]]))
        return module

    def _binary_intrinsic(self, callee):
        module = Module("m")
        function = Function("f", [("a", F64), ("b", F64)], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.call(callee, list(function.arguments)))
        return module

    @pytest.mark.parametrize("callee", ["fmin", "fmax"])
    @pytest.mark.parametrize(
        "args",
        [(float("nan"), 1.0), (1.0, float("nan")),
         (float("nan"), float("nan")), (0.0, -0.0)],
    )
    def test_nan_through_minmax(self, callee, args):
        module = self._binary_intrinsic(callee)
        results = [
            make_interpreter(module, engine).run("f", list(args))
            for engine in ("scalar", "batched")
        ]
        assert struct.pack("<d", results[0]) == struct.pack("<d", results[1])

    def test_nan_through_sqrt(self):
        module = self._unary_intrinsic("sqrt")
        for value in (float("nan"), 4.0, 0.0):
            results = [
                make_interpreter(module, engine).run("f", [value])
                for engine in ("scalar", "batched")
            ]
            assert struct.pack("<d", results[0]) == struct.pack(
                "<d", results[1]
            )

    def test_divide_by_zero_trap_parity(self):
        module = Module("m")
        function = Function("f", [("a", I64), ("b", I64)], I64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.sdiv(*function.arguments))
        messages = []
        for engine in ("scalar", "batched"):
            with pytest.raises(TrapError) as excinfo:
                make_interpreter(module, engine).run("f", [7, 0])
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_fdiv_by_zero_is_not_a_trap(self):
        module = Module("m")
        function = Function("f", [("a", F64), ("b", F64)], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.fdiv(*function.arguments))
        for args, check in [
            ((1.0, 0.0), lambda v: v == float("inf")),
            ((-1.0, 0.0), lambda v: v == float("-inf")),
            ((0.0, 0.0), math.isnan),
        ]:
            for engine in ("scalar", "batched"):
                assert check(make_interpreter(module, engine).run("f", args))

    def test_vector_load_out_of_bounds_parity(self):
        vt = vector_of(F64, 4)
        module = Module("m")
        function = Function("f", [("p", pointer_to(vt))], vt)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.load(function.arguments[0], vt))
        for addr in (0, -8, 1 << 30):
            messages = []
            for engine in ("scalar", "batched"):
                interp = make_interpreter(module, engine, memory=Memory(256))
                with pytest.raises(MemoryError_) as excinfo:
                    interp.run("f", [addr])
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1], addr

    def test_vector_store_out_of_bounds_parity(self):
        vt = vector_of(I64, 2)
        module = Module("m")
        function = Function("f", [("p", pointer_to(vt)), ("v", vt)], VOID)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.store(function.arguments[1], function.arguments[0])
        builder.ret()
        for addr in (0, 250):  # 250: second lane crosses the 256-byte end
            messages = []
            for engine in ("scalar", "batched"):
                interp = make_interpreter(module, engine, memory=Memory(256))
                with pytest.raises(MemoryError_) as excinfo:
                    interp.run("f", [addr, (1, 2)])
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1], addr

    def test_budget_fires_at_identical_step(self):
        module = _loop_module()
        for budget in (1, 7, 50, 137):
            states = []
            for engine in ("scalar", "batched"):
                interp = make_interpreter(module, engine, max_steps=budget)
                with pytest.raises(BudgetExceededError) as excinfo:
                    interp.run("count", [10**9])
                states.append((interp.executed_instructions, str(excinfo.value)))
            assert states[0] == states[1], budget

    def test_budget_not_hit_matches(self):
        module = _loop_module()
        outs = []
        for engine in ("scalar", "batched"):
            interp = make_interpreter(module, engine, max_steps=10_000)
            interp.run("count", [10])
            outs.append((interp.executed_instructions, interp.read_global("A")))
        assert outs[0] == outs[1]


class TestPlanCache:
    def test_plan_reused_across_runs(self):
        module = _loop_module()
        function = module.function("count")
        first = plan_function(function, DEFAULT_TARGET.cost_model)
        second = plan_function(function, DEFAULT_TARGET.cost_model)
        assert first is second
        # a distinct cost model gets its own plan
        assert plan_function(function, None) is not first

    def test_hit_miss_counters(self):
        module = _loop_module()
        function = module.function("count")
        function.__dict__.pop("_repro_plans", None)
        session = CompilerSession(name="plan-cache-test")
        with use_session(session):
            plan_function(function, None)
            plan_function(function, None)
            plan_function(function, None)
        stats = session.stats.snapshot()
        assert stats["interp.plan_cache.misses"] == 1
        assert stats["interp.plan_cache.hits"] == 2


def _loop_module() -> Module:
    """``for i in range(n): A[i] = i`` — the watchdog workout."""
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
    b = IRBuilder(header)
    i = b.phi(I64, "i")
    cond = b.icmp(CmpPredicate.LT, i, function.arguments[0])
    b.condbr(cond, body, done)
    b = IRBuilder(body)
    addr = b.gep(module.global_named("A"), i)
    b.store(i, addr)
    inext = b.add(i, b.const_i64(1))
    b.br(header)
    b = IRBuilder(done)
    b.ret()
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(inext, body)
    return module
