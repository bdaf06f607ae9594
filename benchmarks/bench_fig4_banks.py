"""R-F4: memory throughput vs interleaving degree."""

from repro.harness.experiments import run_experiment


def test_fig4_banks(run_and_print):
    table = run_and_print(run_experiment, "R-F4", n=256)
    by_banks = table.row_map("banks")
    cols = list(table.columns)
    daxpy = cols.index("daxpy")
    s8 = cols.index("stride8_copy")
    assert by_banks[8][daxpy] > 2.5 * by_banks[1][daxpy]
    assert by_banks[8][s8] < 1.5 * by_banks[1][s8]
