"""R-F2: cycles vs architectural queue depth (small queues suffice)."""

from repro.harness.experiments import run_experiment


def test_fig2_queue_depth(run_and_print):
    table = run_and_print(run_experiment, "R-F2", n=256)
    for kernel in table.columns[1:]:
        series = table.column(kernel)
        assert series[0] >= series[-1]
        # saturated well before the deepest setting
        assert series[-2] == series[-1]
