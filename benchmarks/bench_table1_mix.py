"""R-T1: kernel characterization — instruction mix and operand traffic."""

from repro.harness.experiments import run_experiment


def test_table1_mix(run_and_print):
    table = run_and_print(run_experiment, "R-T1", n=192)
    # scalar does per-element address arithmetic; the SMA AP does not
    rows = table.row_map("kernel")
    cols = list(table.columns)
    hydro = rows["hydro"]
    assert hydro[cols.index("ap_instr")] < hydro[cols.index("scalar_instr")] / 50
