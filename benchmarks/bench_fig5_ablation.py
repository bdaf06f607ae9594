"""R-F5: structured descriptors vs per-element (plain DAE) access."""

from repro.harness.experiments import run_experiment


def test_fig5_ablation(run_and_print):
    table = run_and_print(run_experiment, "R-F5", n=256)
    assert min(table.column("benefit")) > 1.2
