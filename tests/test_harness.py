"""Experiment harness: table plumbing plus trend assertions on every
reconstructed experiment (small n to stay fast)."""

import pytest

from repro.harness import EXPERIMENTS, Table, run_experiment


class TestTable:
    def test_add_row_width_checked(self):
        t = Table("X", "t", ("a", "b"))
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_text_rendering(self):
        t = Table("R-T9", "demo", ("name", "value"))
        t.add_row("alpha", 1.2345)
        t.note("a note")
        text = t.to_text()
        assert "R-T9" in text and "alpha" in text and "note" in text

    def test_column_and_row_map(self):
        t = Table("X", "t", ("k", "v"))
        t.add_row("a", 1)
        t.add_row("b", 2)
        assert t.column("v") == [1, 2]
        assert t.row_map("k")["b"] == ("b", 2)

    def test_csv_rendering(self):
        t = Table("R-T9", "demo", ("name", "value"))
        t.add_row("alpha", 1.25)
        t.note("a note")
        csv_text = t.to_csv()
        lines = csv_text.splitlines()
        assert lines[0] == "# [R-T9] demo"
        assert lines[1] == "# note: a note"
        assert lines[2] == "name,value"
        assert lines[3] == "alpha,1.25"


class TestRegistry:
    def test_all_ten_experiments_registered(self):
        assert sorted(EXPERIMENTS) == [
            "R-F1", "R-F2", "R-F3", "R-F4", "R-F5", "R-F6", "R-F7", "R-F8",
            "R-F9",
            "R-T1", "R-T2", "R-T3", "R-T4", "R-T5", "R-T6", "R-T7",
        ]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("R-T99")


class TestTrends:
    """Each reconstructed experiment must reproduce its expected *shape*
    (see DESIGN.md); these assertions are the committed claims."""

    def test_t2_streaming_speedups(self):
        t = run_experiment("R-T2", n=64)
        rows = t.row_map("kernel")
        speedup_col = list(t.columns).index("speedup")
        for name in ("hydro", "daxpy", "first_diff"):
            assert rows[name][speedup_col] > 3.0
        # every kernel at least breaks even
        assert min(t.column("speedup")) >= 1.0

    def test_t3_cache_narrows_but_does_not_close_gap_for_streams(self):
        t = run_experiment("R-T3", n=64, cache_sizes=(256,),
                           kernels=("hydro",))
        row = t.rows[0]
        cols = list(t.columns)
        sma = row[cols.index("sma_cycles")]
        uncached = row[cols.index("scalar_cycles")]
        cached = row[cols.index("cache256w")]
        assert cached < uncached          # the cache helps...
        assert sma < cached               # ...but SMA still wins streaming

    def test_t4_lod_dominates_computed_gather(self):
        t = run_experiment("R-T4", n=64,
                           kernels=("computed_gather", "hydro"))
        rows = t.row_map("kernel")
        frac = list(t.columns).index("lod_frac")
        assert rows["computed_gather"][frac] > 0.3
        assert rows["hydro"][frac] == 0

    def test_f1_latency_tolerance(self):
        t = run_experiment("R-F1", n=64, latencies=(2, 8, 24),
                           kernels=("daxpy",))
        speedups = t.column("daxpy")
        assert speedups[0] < speedups[1] < speedups[2]

    def test_f2_queue_depth_saturates(self):
        t = run_experiment("R-F2", n=64, depths=(1, 8, 32),
                           kernels=("daxpy",))
        cycles = t.column("daxpy")
        assert cycles[0] > cycles[1]          # depth 1 hurts
        assert cycles[1] == cycles[2]         # saturation by depth 8

    def test_f4_bank_aliasing(self):
        t = run_experiment("R-F4", n=64, banks=(1, 8),
                           kernels=("daxpy", "stride8_copy"))
        by_banks = t.row_map("banks")
        cols = list(t.columns)
        daxpy = cols.index("daxpy")
        s8 = cols.index("stride8_copy")
        # unit stride scales with banks; stride-8 stays collapsed
        assert by_banks[8][daxpy] > 2.5 * by_banks[1][daxpy]
        assert by_banks[8][s8] < 1.5 * by_banks[1][s8]

    def test_f5_descriptors_beat_per_element(self):
        t = run_experiment("R-F5", n=64, kernels=("daxpy", "hydro"))
        assert min(t.column("benefit")) > 1.2

    def test_f6_occupancy_profile(self):
        t = run_experiment("R-F6", kernel_name="hydro", n=128, buckets=16)
        occ = t.column("load_occupancy")
        assert len(occ) >= 8
        assert max(occ) > 2.0   # queues actually fill mid-run


class TestRunnerChecks:
    def test_compare_spec_verifies_against_reference(self):
        from repro.harness import compare_spec
        from repro.kernels import get_kernel
        run = compare_spec(get_kernel("daxpy"), n=32)
        assert run.speedup > 1
        assert run.sma.cycles > 0 and run.scalar.cycles > 0
