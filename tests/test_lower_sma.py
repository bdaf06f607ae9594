"""SMA code generator: stream extraction, hazards, resource validation."""

import pytest

from repro.errors import LoweringError
from repro.isa import Op
from repro.kernels import (
    ArrayDecl,
    Assign,
    BinOp,
    Kernel,
    Loop,
    get_kernel,
    lower_sma,
)
from repro.kernels.suite import at, c


def count_ops(program, op):
    return sum(1 for i in program if i.op is op)


class TestStreamExtraction:
    def test_daxpy_streams(self):
        kernel, _ = get_kernel("daxpy").instantiate(16)
        low = lower_sma(kernel)
        assert count_ops(low.access_program, Op.STREAMLD) == 2
        assert count_ops(low.access_program, Op.STREAMST) == 1
        assert low.info.load_streams == 2
        assert low.info.store_streams == 1

    def test_ap_program_is_tiny_for_streaming_kernels(self):
        kernel, _ = get_kernel("hydro").instantiate(1024)
        low = lower_sma(kernel)
        # constant-size access program regardless of n: the whole point
        assert len(low.access_program) < 10

    def test_gather_chains_index_stream(self):
        kernel, _ = get_kernel("pic_gather").instantiate(16)
        low = lower_sma(kernel)
        assert count_ops(low.access_program, Op.GATHER) == 1
        assert low.info.gather_streams == 1

    def test_scatter(self):
        kernel, _ = get_kernel("pic_scatter").instantiate(16)
        low = lower_sma(kernel)
        assert count_ops(low.access_program, Op.SCATTER) == 1
        assert low.info.scatter_streams == 1

    def test_carried_forwarding_removes_stream(self):
        kernel, _ = get_kernel("tridiag").instantiate(16)
        low = lower_sma(kernel)
        # x is forwarded: only y and z stream in; one seed LDQ for x[0]
        assert low.info.load_streams == 2
        assert low.info.carried_refs == 1
        assert count_ops(low.access_program, Op.LDQ) == 1

    def test_computed_ref_forces_service_loop(self):
        kernel, _ = get_kernel("computed_gather").instantiate(16)
        low = lower_sma(kernel)
        assert count_ops(low.access_program, Op.FROMQ) == 1
        assert count_ops(low.access_program, Op.DECBNZ) == 1
        assert low.info.computed_refs == 1

    def test_reduction_uses_staddr(self):
        kernel, _ = get_kernel("inner_product").instantiate(16)
        low = lower_sma(kernel)
        assert count_ops(low.access_program, Op.STADDR) == 1
        assert low.info.reductions == 1

    def test_ablation_mode_has_no_descriptors(self):
        kernel, _ = get_kernel("daxpy").instantiate(16)
        low = lower_sma(kernel, use_streams=False)
        assert count_ops(low.access_program, Op.STREAMLD) == 0
        assert count_ops(low.access_program, Op.STREAMST) == 0
        assert count_ops(low.access_program, Op.LDQ) >= 2
        assert count_ops(low.access_program, Op.STADDR) >= 1
        assert not low.uses_streams

    def test_execute_program_identical_across_modes(self):
        kernel, _ = get_kernel("hydro").instantiate(16)
        a = lower_sma(kernel, use_streams=True)
        b = lower_sma(kernel, use_streams=False)
        assert a.execute_program.instructions == b.execute_program.instructions


class TestHazardRules:
    def test_trailing_read_beyond_distance_one_rejected(self):
        kernel = Kernel(
            "bad",
            (ArrayDecl("x", 16), ArrayDecl("y", 16)),
            (Loop("i", 12, (
                Assign(at("x", 2, i=1),
                       BinOp("+", at("x", i=1), at("y", i=1))),
            )),),
        )
        with pytest.raises(LoweringError, match="trails"):
            lower_sma(kernel)

    def test_read_after_write_statement_rejected(self):
        kernel = Kernel(
            "bad2",
            (ArrayDecl("a", 8), ArrayDecl("b", 8)),
            (Loop("i", 8, (
                Assign(at("a", i=1), at("b", i=1)),
                Assign(at("b", i=1), at("a", i=1)),
            )),),
        )
        with pytest.raises(LoweringError, match="stale"):
            lower_sma(kernel)

    def test_read_ahead_allowed(self):
        kernel = Kernel(
            "ok",
            (ArrayDecl("x", 17),),
            (Loop("i", 16, (
                Assign(at("x", i=1), BinOp("+", at("x", 1, i=1), c(1.0))),
            )),),
        )
        lower_sma(kernel)  # must not raise

    def test_mismatched_index_shapes_rejected(self):
        kernel = Kernel(
            "bad3",
            (ArrayDecl("x", 32),),
            (Loop("i", 8, (
                Assign(at("x", i=1), at("x", i=2)),
            )),),
        )
        with pytest.raises(LoweringError, match="index"):
            lower_sma(kernel)

    def test_duplicate_writes_rejected(self):
        kernel = Kernel(
            "bad4",
            (ArrayDecl("x", 8),),
            (Loop("i", 8, (
                Assign(at("x", i=1), c(1.0)),
                Assign(at("x", i=1), c(2.0)),
            )),),
        )
        with pytest.raises(LoweringError, match="duplicate"):
            lower_sma(kernel)


class TestResourceValidation:
    def test_too_many_load_streams(self):
        arrays = tuple(ArrayDecl(f"a{k}", 8) for k in range(10))
        expr = at("a1", i=1)
        for k in range(2, 10):
            expr = BinOp("+", expr, at(f"a{k}", i=1))
        kernel = Kernel(
            "wide", arrays,
            (Loop("i", 8, (Assign(at("a0", i=1), expr),)),),
        )
        with pytest.raises(LoweringError, match="load streams"):
            lower_sma(kernel)

    def test_queue_budget_comfortable_for_suite(self):
        from repro.kernels import all_kernels
        for spec in all_kernels():
            kernel, _ = spec.instantiate(8)
            lower_sma(kernel)
            lower_sma(kernel, use_streams=False)
