"""Vector-machine baseline: ops, timing model, vectorizer legality."""

import numpy as np
import pytest

from repro.baseline.vector_machine import (
    SetAcc,
    StoreAcc,
    Strip,
    VArith,
    VectorMachine,
    VLoad,
    VReduce,
    VStore,
)
from repro.config import MemoryConfig
from repro.errors import SimulationError
from repro.isa import Op
from repro.kernels import get_kernel, run_reference
from repro.kernels.lower_vector import VectorizationError, lower_vector
from repro.harness.runner import run_on_vector


def mem_cfg(**kw):
    kw.setdefault("size", 1024)
    return MemoryConfig(**kw)


class TestMachineOps:
    def test_load_compute_store(self):
        program = [Strip((
            VLoad(0, 100, 1, 4),
            VArith(Op.MUL, 1, (0, 2.0)),
            VStore(1, 200, 1, 4),
        ), 4)]
        m = VectorMachine(program, mem_cfg())
        m.load_array(100, [1.0, 2.0, 3.0, 4.0])
        m.run()
        assert m.dump_array(200, 4).tolist() == [2.0, 4.0, 6.0, 8.0]

    def test_strided_and_negative(self):
        program = [Strip((
            VLoad(0, 106, -2, 4),   # 106, 104, 102, 100
            VStore(0, 300, 1, 4),
        ), 4)]
        m = VectorMachine(program, mem_cfg())
        m.load_array(100, np.arange(8, dtype=float))
        m.run()
        assert m.dump_array(300, 4).tolist() == [6.0, 4.0, 2.0, 0.0]

    def test_reduce_sequential_order(self):
        program = [
            SetAcc(0, 10.0),
            Strip((VLoad(0, 100, 1, 4), VReduce(Op.ADD, 0, 0)), 4),
            StoreAcc(0, 400),
        ]
        m = VectorMachine(program, mem_cfg())
        m.load_array(100, [1.0, 2.0, 3.0, 4.0])
        m.run()
        assert m.memory.read(400) == 20.0

    def test_unwritten_vreg_rejected(self):
        m = VectorMachine([Strip((VStore(3, 100, 1, 2),), 2)], mem_cfg())
        with pytest.raises(SimulationError, match="read before written"):
            m.run()

    def test_strip_length_bounds(self):
        m = VectorMachine(
            [Strip((VLoad(0, 0, 1, 100),), 100)], mem_cfg(), max_vl=64
        )
        with pytest.raises(SimulationError, match="strip length"):
            m.run()


class TestTiming:
    def test_unit_stride_strip_cost(self):
        cfg = mem_cfg(latency=8, bank_busy=4, num_banks=8)
        program = [Strip((VLoad(0, 0, 1, 64), VStore(0, 200, 1, 64)), 64)]
        m = VectorMachine(program, cfg)
        res = m.run()
        # 2 startups + latency + VL / rate(=1)
        assert res.cycles == 2 * m.STARTUP + 8 + 64

    def test_bank_collapse_slows_strided_strip(self):
        cfg = mem_cfg(latency=8, bank_busy=4, num_banks=8)
        unit = VectorMachine(
            [Strip((VLoad(0, 0, 1, 64),), 64)], cfg
        ).run().cycles
        collapsed = VectorMachine(
            [Strip((VLoad(0, 0, 8, 64),), 64)], mem_cfg(
                latency=8, bank_busy=4, num_banks=8, size=1024
            )
        ).run().cycles
        assert collapsed > 3 * unit

    def test_stats(self):
        program = [Strip((
            VLoad(0, 0, 1, 8), VArith(Op.ADD, 1, (0, 1.0)),
            VStore(1, 100, 1, 8),
        ), 8)]
        res = VectorMachine(program, mem_cfg()).run()
        assert res.strips == 1
        assert res.vector_ops == 3
        assert res.element_operations == 24
        assert res.memory_reads == 8 and res.memory_writes == 8


class TestVectorizer:
    VECTORIZABLE = ("daxpy", "hydro", "inner_product", "stencil2d",
                    "threshold", "integrate", "reverse_copy", "max_abs",
                    "conv4", "count_above", "clip", "hydro2d", "wave1d")
    REJECTED = {
        "tridiag": "loop-carried",
        "first_sum": "loop-carried",
        "linear_rec": "loop-carried",
        "pic_gather": "gather",
        "pic_scatter": "scatter|indirect store",
        "computed_gather": "data-dependent",
        "field_interp": "gather",
    }

    @pytest.mark.parametrize("name", VECTORIZABLE)
    def test_vectorizable_kernels_match_reference(self, name):
        kernel, inputs = get_kernel(name).instantiate(80)  # > one strip
        golden = run_reference(kernel, inputs)
        run = run_on_vector(kernel, inputs)
        for arr, want in golden.items():
            np.testing.assert_array_equal(run.outputs[arr], want,
                                          err_msg=f"{name}/{arr}")

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejections_name_their_reason(self, name):
        import re

        kernel, inputs = get_kernel(name).instantiate(32)
        with pytest.raises(VectorizationError) as excinfo:
            lower_vector(kernel)
        assert re.search(self.REJECTED[name], str(excinfo.value))

    def test_strip_mining_covers_odd_sizes(self):
        kernel, inputs = get_kernel("daxpy").instantiate(67)
        golden = run_reference(kernel, inputs)
        run = run_on_vector(kernel, inputs)
        np.testing.assert_array_equal(run.outputs["y"], golden["y"])

    def test_strip_count(self):
        kernel, _ = get_kernel("daxpy").instantiate(130)
        low = lower_vector(kernel, max_vl=64)
        strips = [op for op in low.program if isinstance(op, Strip)]
        assert [s.length for s in strips] == [64, 64, 2]

    def test_vector_wins_streaming_loses_recurrences(self):
        """The R-T6 story at unit-test scale."""
        from repro.harness.runner import run_on_sma

        kernel, inputs = get_kernel("daxpy").instantiate(128)
        assert run_on_vector(kernel, inputs).cycles < \
            run_on_sma(kernel, inputs).cycles
        kernel, inputs = get_kernel("tridiag").instantiate(128)
        with pytest.raises(VectorizationError):
            lower_vector(kernel)
