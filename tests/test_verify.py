"""Write-sequence verification layer."""

import numpy as np
import pytest

from repro.kernels import get_kernel
from repro.verify import (
    MemoryTracer,
    diff_write_sequences,
    reference_write_sequences,
    verify_kernel_writes,
)


class TestTracer:
    def test_records_reads_and_writes(self):
        from repro.core import SMAMachine
        from repro.isa import assemble

        m = SMAMachine(
            assemble("ldq lq0, #20, #0\nstaddr sdq0, #30, #0\nhalt"),
            assemble("add sdq0, lq0, #1.0\nhalt"),
        )
        m.memory.write(20, 2.5)
        tracer = MemoryTracer().install(m)
        m.run()
        assert ("r", 20, 2.5) in tracer.events
        assert ("w", 30, 3.5) in tracer.events
        assert tracer.reads == 1 and tracer.writes == 1
        assert tracer.write_sequences() == {30: [3.5]}
        assert tracer.read_addresses() == {20}

    def test_bulk_staging_not_traced(self):
        from repro.memory import MainMemory

        mem = MainMemory(32)
        tracer = MemoryTracer()
        mem.observer = tracer
        mem.load_array(0, np.ones(8))
        mem.dump_array(0, 8)
        assert tracer.events == []


class TestDiff:
    def test_identical(self):
        assert diff_write_sequences({1: [2.0]}, {1: [2.0]}) == []

    def test_value_mismatch(self):
        mismatches = diff_write_sequences({1: [2.0]}, {1: [3.0]})
        assert len(mismatches) == 1
        assert "addr 1" in str(mismatches[0])

    def test_order_mismatch(self):
        assert diff_write_sequences({1: [2.0, 3.0]}, {1: [3.0, 2.0]})

    def test_missing_writes(self):
        assert diff_write_sequences({1: [2.0]}, {})
        assert diff_write_sequences({}, {1: [2.0]})


class TestReferenceSequences:
    def test_in_place_kernel_records_every_write(self):
        kernel, inputs = get_kernel("first_sum").instantiate(8)
        from repro.kernels import lower_sma

        layout = lower_sma(kernel).layout
        sequences = reference_write_sequences(kernel, inputs, layout)
        # one write per loop iteration, each to a distinct address
        assert len(sequences) == 8
        assert all(len(seq) == 1 for seq in sequences.values())

    def test_reduction_records_single_final_store(self):
        kernel, inputs = get_kernel("inner_product").instantiate(8)
        from repro.kernels import lower_sma

        layout = lower_sma(kernel).layout
        sequences = reference_write_sequences(kernel, inputs, layout)
        out_addr = layout.base("out")
        assert list(sequences) == [out_addr]
        assert sequences[out_addr][0] == pytest.approx(
            float(np.dot(inputs["x"], inputs["z"]))
        )


@pytest.mark.parametrize("machine", ["sma", "sma-nostream", "scalar"])
@pytest.mark.parametrize(
    "name",
    ["daxpy", "tridiag", "pic_scatter", "stencil2d", "hydro2d",
     "computed_gather", "count_above", "matvec", "row_max"],
)
def test_write_sequences_match_sequential_semantics(name, machine):
    """Per-address write order on every machine equals the sequential
    order — a strictly stronger property than final-state equality."""
    kernel, inputs = get_kernel(name).instantiate(24)
    mismatches = verify_kernel_writes(kernel, inputs, machine)
    assert not mismatches, mismatches[:3]


def test_unknown_machine_rejected():
    kernel, inputs = get_kernel("daxpy").instantiate(8)
    with pytest.raises(ValueError):
        verify_kernel_writes(kernel, inputs, "vliw")
