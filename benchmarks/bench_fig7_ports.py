"""R-F7 (extension): memory-port width ablation for a single node."""

from repro.harness.experiments import run_experiment


def test_fig7_ports(run_and_print):
    table = run_and_print(run_experiment, "R-F7", n=256)
    cols = list(table.columns)
    # committed finding: a single node is execute-bound, so throughput is
    # flat in port width (within 2%) and the EP is busy ~all cycles
    for kernel in ("daxpy", "hydro", "state_eqn"):
        series = table.column(kernel)
        assert max(series) <= min(series) * 1.02, kernel
    assert min(table.column("ep_busy_daxpy")) > 0.9
