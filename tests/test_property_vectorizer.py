"""Property-based end-to-end vectorizer tests.

Hypothesis generates random manually-unrolled kernels (random expression
trees per lane over random arrays) and every configuration must produce
the same memory contents as the O3 oracle.  This fuzzes the entire stack:
seeds, chain formation, reordering, legality, cost, codegen and DCE.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.interp import Interpreter
from repro.ir import (
    F64,
    I64,
    VOID,
    Function,
    IRBuilder,
    Module,
    verify_module,
)
from repro.machine import DEFAULT_TARGET, SSE4_LIKE
from repro.vectorizer import ALL_CONFIGS, compile_module

ARRAYS = "BCDEF"
LEN = 64


def _random_kernel(seed: int, num_lanes: int, float_mode: bool) -> Module:
    """A straight-line kernel: A[i+k] = expr_k for k in range(num_lanes).

    Each lane's expression is an independent random tree over loads of the
    input arrays at that lane's offset, so lanes are *near*-isomorphic with
    randomly permuted/structured terms — exactly the shape the Super-Node
    machinery manipulates.
    """
    rng = random.Random(seed)
    element = F64 if float_mode else I64
    module = Module(f"fuzz{seed}")
    module.add_global("A", element, LEN)
    for name in ARRAYS:
        module.add_global(name, element, LEN)
    function = Function("kernel", [("i", I64)], VOID, fast_math=True)
    module.add_function(function)
    builder = IRBuilder(function.add_block("entry"))
    i = function.arguments[0]
    index_cache = {}

    def index(off):
        if off not in index_cache:
            index_cache[off] = (
                builder.add(i, builder.const_i64(off)) if off else i
            )
        return index_cache[off]

    def load(name, off):
        return builder.load(builder.gep(module.global_named(name), index(off)))

    add_ops = ("fadd", "fsub") if float_mode else ("add", "sub")
    mul_ops = ("fmul", "fdiv") if float_mode else ("mul",)

    def expr(off, depth):
        if depth <= 0 or rng.random() < 0.35:
            return load(rng.choice(ARRAYS), off)
        roll = rng.random()
        if float_mode and roll < 0.08:
            # occasionally wrap in a pure intrinsic (call-bundle coverage)
            inner = expr(off, depth - 1)
            return builder.call("fabs", [inner])
        if float_mode and roll < 0.12:
            a = expr(off, depth - 1)
            b = expr(off, depth - 1)
            return builder.call(rng.choice(("fmin", "fmax")), [a, b])
        if roll < 0.75:
            op = rng.choice(add_ops)
        else:
            op = rng.choice(mul_ops)
        return getattr(builder, op)(expr(off, depth - 1), expr(off, depth - 1))

    for lane in range(num_lanes):
        value = expr(lane, rng.randint(2, 4))
        builder.store(value, builder.gep(module.global_named("A"), index(lane)))
    builder.ret()
    verify_module(module)
    return module


def _inputs(seed: int, float_mode: bool):
    rng = random.Random(seed ^ 0xBEEF)
    if float_mode:
        # keep magnitudes in a narrow positive band so fdiv chains stay
        # well-conditioned and reassociation error is tiny
        return {
            name: [rng.uniform(0.5, 2.0) for _ in range(LEN)]
            for name in ("A",) + tuple(ARRAYS)
        }
    return {
        name: [rng.randint(-1000, 1000) for _ in range(LEN)]
        for name in ("A",) + tuple(ARRAYS)
    }


def _run(module: Module, inputs) -> list:
    interp = Interpreter(module)
    for name, values in inputs.items():
        interp.write_global(name, values)
    interp.run("kernel", [0])
    return interp.read_global("A")


def _check_all_configs(seed, num_lanes, float_mode, target):
    module = _random_kernel(seed, num_lanes, float_mode)
    inputs = _inputs(seed, float_mode)
    oracle = None
    for config in ALL_CONFIGS:
        compiled = compile_module(module, config, target)
        out = _run(compiled.module, inputs)
        if oracle is None:
            oracle = out
            continue
        if float_mode:
            for x, y in zip(out, oracle):
                both_nan = math.isnan(x) and math.isnan(y)
                assert both_nan or math.isclose(x, y, rel_tol=1e-7, abs_tol=1e-9), (
                    f"seed={seed} lanes={num_lanes} config={config.name}"
                )
        else:
            assert out == oracle, (
                f"seed={seed} lanes={num_lanes} config={config.name}"
            )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    num_lanes=st.sampled_from([2, 4]),
)
def test_integer_kernels_bitexact_across_configs(seed, num_lanes):
    _check_all_configs(seed, num_lanes, float_mode=False, target=DEFAULT_TARGET)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    num_lanes=st.sampled_from([2, 4]),
)
def test_float_kernels_close_across_configs(seed, num_lanes):
    _check_all_configs(seed, num_lanes, float_mode=True, target=DEFAULT_TARGET)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_sse_target_also_correct(seed):
    _check_all_configs(seed, 2, float_mode=False, target=SSE4_LIKE)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_vectorized_ir_always_verifies(seed):
    from repro.vectorizer import SNSLP_CONFIG

    module = _random_kernel(seed, 4, float_mode=False)
    compiled = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
    verify_module(compiled.module)


def _random_reduction_kernel(seed: int, float_mode: bool) -> Module:
    """A straight-line kernel whose store value is one long reduction
    chain with random signs and random (load or product) leaves."""
    rng = random.Random(seed)
    element = F64 if float_mode else I64
    module = Module(f"redfuzz{seed}")
    module.add_global("A", element, LEN)
    for name in ARRAYS:
        module.add_global(name, element, LEN)
    function = Function("kernel", [("i", I64)], VOID, fast_math=True)
    module.add_function(function)
    builder = IRBuilder(function.add_block("entry"))
    i = function.arguments[0]

    def load(name, off):
        idx = builder.add(i, builder.const_i64(off)) if off else i
        return builder.load(builder.gep(module.global_named(name), idx))

    def leaf(k):
        if rng.random() < 0.5:
            return load(rng.choice(ARRAYS), k)
        mul = "fmul" if float_mode else "mul"
        return getattr(builder, mul)(
            load(rng.choice(ARRAYS), k), load(rng.choice(ARRAYS), k)
        )

    count = rng.randint(4, 12)
    add = "fadd" if float_mode else "add"
    sub = "fsub" if float_mode else "sub"
    acc = leaf(0)
    for k in range(1, count):
        op = sub if rng.random() < 0.3 else add
        acc = getattr(builder, op)(acc, leaf(k))
    builder.store(acc, builder.gep(module.global_named("A"), i))
    builder.ret()
    verify_module(module)
    return module


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), float_mode=st.booleans())
def test_random_reductions_correct_across_configs(seed, float_mode):
    module = _random_reduction_kernel(seed, float_mode)
    inputs = _inputs(seed, float_mode)
    oracle = None
    for config in ALL_CONFIGS:
        compiled = compile_module(module, config, DEFAULT_TARGET)
        out = _run(compiled.module, inputs)
        if oracle is None:
            oracle = out
            continue
        if float_mode:
            for x, y in zip(out, oracle):
                both_nan = math.isnan(x) and math.isnan(y)
                assert both_nan or math.isclose(x, y, rel_tol=1e-7, abs_tol=1e-9), (
                    f"seed={seed} config={config.name}"
                )
        else:
            assert out == oracle, f"seed={seed} config={config.name}"
