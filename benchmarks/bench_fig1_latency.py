"""R-F1: speedup vs memory latency (latency tolerance)."""

from repro.harness.experiments import run_experiment


def test_fig1_latency(run_and_print):
    table = run_and_print(run_experiment, "R-F1", n=256)
    for kernel in table.columns[1:]:
        series = table.column(kernel)
        assert series[-1] > series[0], f"{kernel} not latency tolerant"
