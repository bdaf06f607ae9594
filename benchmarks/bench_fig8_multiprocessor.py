"""R-F8 (extension): SMA nodes sharing one banked memory."""

from repro.harness.experiments import run_experiment


def test_fig8_multiprocessor(run_and_print):
    table = run_and_print(run_experiment, "R-F8", n=192)
    by_nodes = table.row_map("nodes")
    cols = list(table.columns)
    one_port = cols.index("ports1")
    four_ports = cols.index("ports4")
    # single node: no interference by definition
    assert by_nodes[1][one_port] == 1.0
    # port starvation scales with node count ...
    assert by_nodes[8][one_port] > by_nodes[4][one_port] \
        > by_nodes[2][one_port] > 1.2
    # ... and widening the port wins most of it back
    assert by_nodes[4][four_ports] < by_nodes[4][one_port] * 0.7
    assert by_nodes[8][four_ports] < by_nodes[8][one_port] * 0.7
