"""R-T7: speculative AP vs prediction accuracy."""

from repro.harness.experiments import run_experiment


def test_table7_speculation(run_and_print):
    table = run_and_print(run_experiment, "R-T7", n=256)
    cols = list(table.columns)
    cyc, spd = cols.index("cycles"), cols.index("recovered_speedup")
    lod = cols.index("lod_stall_cycles")
    by_kernel: dict[str, list] = {}
    for row in table.rows:
        by_kernel.setdefault(row[0], []).append(row)
    for rows in by_kernel.values():
        cycles = [r[cyc] for r in rows]
        # recovered speedup is monotone in accuracy
        assert cycles == sorted(cycles, reverse=True)
        assert rows[-1][spd] > 2.0
        # a perfect predictor eliminates >=90% of the lod_* stall cycles
        assert rows[-1][lod] <= 0.1 * rows[0][lod]
