"""R-F3: achieved run-ahead (slip) per kernel."""

from repro.harness.experiments import run_experiment


def test_fig3_slip(run_and_print):
    table = run_and_print(run_experiment, "R-F3", n=256)
    rows = table.row_map("kernel")
    cols = list(table.columns)
    mean = cols.index("mean_outstanding")
    starve = cols.index("ep_empty_stall_frac")
    # streaming kernels sustain deeper run-ahead than the LOD kernel...
    assert rows["hydro"][mean] > rows["computed_gather"][mean]
    # ...and, decisively, their EP almost never starves, while the LOD
    # kernel's EP waits on memory most of the time (occupancy alone can't
    # show this: a LOD-stalled loop parks with *full* queues)
    assert rows["hydro"][starve] < 0.1
    assert rows["computed_gather"][starve] > 0.4
