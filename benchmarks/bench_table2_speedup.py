"""R-T2: headline result — SMA vs scalar baseline over the whole suite."""

from repro.harness.experiments import run_experiment


def test_table2_speedup(run_and_print):
    table = run_and_print(run_experiment, "R-T2", n=256)
    speedups = table.column("speedup")
    assert min(speedups) >= 1.0
    assert max(speedups) > 5.0
