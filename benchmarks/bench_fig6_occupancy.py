"""R-F6: queue occupancy over time (the decoupling profile)."""

from repro.harness.experiments import run_experiment


def test_fig6_occupancy(run_and_print):
    table = run_and_print(run_experiment, "R-F6", kernel_name="hydro", n=512)
    occupancy = table.column("load_occupancy")
    # fills quickly, sustains, then drains: peak well above the edges
    assert max(occupancy) >= 4.0
    assert occupancy[-1] <= max(occupancy)
