"""R-F9: speculation run-ahead depth sweep."""

from repro.harness.experiments import run_experiment


def test_fig9_spec_depth(run_and_print):
    table = run_and_print(run_experiment, "R-F9", n=256)
    cols = list(table.columns)
    cyc = cols.index("cycles")
    by_kernel: dict[str, list] = {}
    for row in table.rows:
        by_kernel.setdefault(row[0], []).append(row)
    for rows in by_kernel.values():
        cycles = [r[cyc] for r in rows]
        # deeper run-ahead never hurts, and depth 1 is clearly worse
        # than the saturation point
        assert cycles == sorted(cycles, reverse=True)
        assert cycles[0] > 1.2 * cycles[-1]
