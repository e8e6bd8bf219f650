"""Compilation pipeline tests: cloning, isolation, flags, reports."""

import pytest

from repro.ir import Opcode, parse_module, print_module, verify_module
from repro.kernels import kernel_named
from repro.machine import DEFAULT_TARGET
from repro.vectorizer import (
    LSLP_CONFIG,
    O3_CONFIG,
    SNSLP_CONFIG,
    clone_module,
    compile_module,
)


class TestCloneModule:
    def test_clone_is_structurally_identical(self):
        module = kernel_named("motiv-trunk-reorder").build()
        clone = clone_module(module)
        assert print_module(clone) == print_module(module)
        assert clone is not module

    def test_clone_shares_no_objects(self):
        module = kernel_named("motiv-trunk-reorder").build()
        clone = clone_module(module)
        original_ids = {id(inst) for inst in module.function("kernel").instructions()}
        clone_ids = {id(inst) for inst in clone.function("kernel").instructions()}
        assert original_ids.isdisjoint(clone_ids)

    def test_text_round_trip_clone_agrees_with_structural(self):
        # the printer -> parser round trip checks both against each other;
        # the structural clone must produce the same module
        module = kernel_named("motiv-trunk-reorder").build()
        round_tripped = parse_module(print_module(module))
        verify_module(round_tripped)
        assert print_module(round_tripped) == print_module(module)
        assert print_module(round_tripped) == print_module(clone_module(module))


class TestSingleDriver:
    def test_plain_compile_clones_and_verifies_once(self, monkeypatch):
        # the driver looks these seams up at call time, so counting
        # wrappers see every clone and verify a plain compile makes
        import repro.vectorizer.pipeline as pipeline

        calls = {"clone_module": 0, "verify_module": 0}
        for name in calls:
            def counting(*args, _name=name, _inner=getattr(pipeline, name)):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(pipeline, name, counting)
        module = kernel_named("motiv-trunk-reorder").build()
        compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        assert calls == {"clone_module": 1, "verify_module": 1}


class TestCompileModule:
    def test_input_module_never_mutated(self):
        module = kernel_named("motiv-trunk-reorder").build()
        before = print_module(module)
        compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        assert print_module(module) == before

    def test_compile_seconds_positive(self):
        module = kernel_named("motiv-trunk-reorder").build()
        result = compile_module(module, O3_CONFIG, DEFAULT_TARGET)
        assert result.compile_seconds > 0

    def test_result_module_verifies(self):
        module = kernel_named("milc-su3-cmul").build()
        result = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        verify_module(result.module)

    def test_simplify_always_runs(self):
        # the frontend's `i+0` index math must be gone even under O3
        from repro.frontend import compile_source

        module = compile_source(
            "long A[16]; long B[16];\nkernel k(n) { A[0+0] = B[1-1]; }"
        )
        result = compile_module(module, O3_CONFIG, DEFAULT_TARGET)
        entry = result.module.function("k").entry
        adds = [i for i in entry if i.opcode in (Opcode.ADD, Opcode.SUB)]
        assert adds == []

    def test_unroll_factor_zero_is_default(self):
        module = kernel_named("motiv-trunk-reorder").build()
        a = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        b = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET, unroll_factor=0)
        assert print_module(a.module) == print_module(b.module)

    def test_report_summary_text(self):
        module = kernel_named("motiv-trunk-reorder").build()
        result = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        summary = result.report.summary()
        assert "config: SN-SLP" in summary
        assert "graphs vectorized: 1" in summary
        assert "average node size" in summary

    def test_same_input_same_output(self):
        module = kernel_named("dealii-cell-assembly").build()
        a = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        b = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        assert print_module(a.module) == print_module(b.module)

    def test_graph_kind_field(self):
        module = kernel_named("milc-staple-reduce").build()
        result = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        kinds = {g.kind for g in result.report.all_graphs()}
        assert "reduction" in kinds


class TestGraphDump:
    def test_shared_nodes_printed_once_per_visit_guard(self):
        # the clamp shape shares load nodes between cmp and select; the
        # dump must terminate and mention each node kind
        from conftest import build_simple_store_module
        from repro.vectorizer import collect_store_seeds, SLPVectorizer, SLP_CONFIG
        from repro.vectorizer.slp import _GraphBuilder

        module = build_simple_store_module(2)
        function = module.function("kernel")
        vectorizer = SLPVectorizer(DEFAULT_TARGET, SLP_CONFIG)
        seeds = collect_store_seeds(function.entry, DEFAULT_TARGET.isa)
        graph = _GraphBuilder(vectorizer, seeds[0], function).build()
        text = graph.dump()
        assert text.count("store") >= 1
        assert "cost" in text
