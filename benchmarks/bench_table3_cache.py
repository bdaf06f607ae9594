"""R-T3: SMA queues vs a conventional data cache on the baseline."""

from repro.harness.experiments import run_experiment


def test_table3_cache(run_and_print):
    table = run_and_print(run_experiment, "R-T3", n=256)
    cols = list(table.columns)
    for row in table.rows:
        # SMA beats even the largest swept cache on these kernels
        assert row[cols.index("sma_cycles")] <= row[cols.index("cache4096w")]
