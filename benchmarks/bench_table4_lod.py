"""R-T4: loss-of-decoupling accounting."""

from repro.harness.experiments import run_experiment


def test_table4_lod(run_and_print):
    table = run_and_print(run_experiment, "R-T4", n=256)
    rows = table.row_map("kernel")
    frac = list(table.columns).index("lod_frac")
    assert rows["computed_gather"][frac] > 0.3
    assert rows["pic_gather"][frac] == 0
