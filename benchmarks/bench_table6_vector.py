"""R-T6 (extension): SMA vs a CRAY-flavoured vector machine."""

from repro.harness.experiments import run_experiment


def test_table6_vector(run_and_print):
    table = run_and_print(run_experiment, "R-T6", n=256)
    cols = list(table.columns)
    rows = table.row_map("kernel")
    ratio = cols.index("sma_vs_vector")
    vect = cols.index("vectorized")
    # the vector machine wins the streams it can vectorize ...
    assert rows["daxpy"][vect] == "yes"
    assert rows["daxpy"][ratio] < 1.0
    # ... but recurrences and irregular kernels fall off its cliff while
    # the SMA keeps its decoupled speed
    for name in ("tridiag", "pic_gather", "pic_scatter"):
        assert rows[name][vect] != "yes"
        assert rows[name][ratio] > 4.0, name
