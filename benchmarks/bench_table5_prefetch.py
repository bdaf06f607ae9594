"""R-T5 (extension): SMA vs hardware prefetching on the baseline."""

from repro.harness.experiments import run_experiment


def test_table5_prefetch(run_and_print):
    table = run_and_print(run_experiment, "R-T5", n=256)
    cols = list(table.columns)
    rows = table.row_map("kernel")
    # the RPT covers almost all strided misses ...
    assert rows["daxpy"][cols.index("rpt_coverage")] > 0.9
    # ... yet the SMA stays well ahead on unit-stride streams
    assert rows["daxpy"][cols.index("sma")] * 2 < rows["daxpy"][cols.index("rpt")]
    # OBL pollutes on non-unit stride (worse than no prefetch at all)
    assert rows["stride8_copy"][cols.index("obl")] > rows["stride8_copy"][cols.index("cache")] * 0.99
