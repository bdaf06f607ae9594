#!/usr/bin/env python
"""R-F8 smoke sweep for CI, in two parts.

1. A 2-node cluster at a small problem size, run with metrics capture so
   the per-node cluster RunReports can be gated by
   ``scripts/check_runreport_schema.py``.
2. A scheduler-equivalence check on R-F8 cells: that 2-node cell and an
   8-node n=32 cell, at every R-F8 port width, each run under the
   default scheduler and under ``scheduler="naive"``, with and without
   metrics attached.  The runs must agree on cluster cycles, finish
   cycles, every node's ``to_dict()`` and queue histograms, the
   shared-memory contention counters and the memory image digest.

Usage::

    PYTHONPATH=src python scripts/rf8_smoke.py --out cluster-runreports
    python scripts/check_runreport_schema.py cluster-runreports
"""

import argparse
import hashlib
import sys

#: R-F8's memory: latency 8, bank_busy 4, 16 banks; ports vary per cell
RF8_PORTS = (1, 2, 4)


def _cell_observables(nodes: int, n: int, ports: int, scheduler,
                      metrics: bool) -> dict:
    """Build one R-F8 cell exactly as the harness does, run it, and
    return everything the schedulers must agree on."""
    from repro.config import MemoryConfig, QueueConfig, SMAConfig
    from repro.harness.jobs import Job, cluster_workloads
    from repro.harness.runner import _prepare_cluster

    memory = MemoryConfig(
        latency=8, bank_busy=4, num_banks=16, accepts_per_cycle=ports
    )
    cfg = SMAConfig(memory=memory, queues=QueueConfig())
    job = Job("cluster", "daxpy", n, sma_config=cfg, nodes=nodes)
    cluster, _lowered, cfg, _node_metrics = _prepare_cluster(
        cluster_workloads(job), cfg, metrics=metrics
    )
    result = cluster.run(scheduler=scheduler)
    image = cluster.memory.dump_array(0, cfg.memory.size)
    return {
        "cycles": result.cycles,
        "finish_cycles": list(result.finish_cycles),
        "nodes": [node.to_dict() for node in result.nodes],
        "queue_histograms": [
            {name: dict(stats.histogram)
             for name, stats in node.queue_stats.items()}
            for node in result.nodes
        ],
        "contention": dict(
            result.contention(),
            completions=cluster.banked.stats.completions,
        ),
        "memory_digest": hashlib.sha256(image.tobytes()).hexdigest(),
    }


def check_schedulers(cells) -> int:
    """Compare the default scheduler against naive on every cell;
    returns the number of disagreeing runs."""
    failures = 0
    for nodes, n in cells:
        for ports in RF8_PORTS:
            for metrics in (False, True):
                naive = _cell_observables(nodes, n, ports, "naive", metrics)
                default = _cell_observables(nodes, n, ports, None, metrics)
                same = naive == default
                failures += not same
                print(f"nodes={nodes} n={n} ports={ports} "
                      f"metrics={'on' if metrics else 'off'}: "
                      f"{naive['cycles']} cluster cycles, default "
                      f"{'==' if same else '!='} naive")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=32,
                        help="problem size per node (default 32)")
    parser.add_argument("--nodes", type=int, default=2,
                        help="cluster node count (default 2)")
    parser.add_argument("--out", default="cluster-runreports",
                        help="directory for the captured RunReports")
    args = parser.parse_args(argv)

    from repro.harness.experiments import run_experiment
    from repro.metrics import capture_reports

    with capture_reports(args.out) as collector:
        table = run_experiment("R-F8", n=args.n, node_counts=(args.nodes,))
        print(table.to_text())
        print(f"captured {len(collector.reports)} RunReport(s) "
              f"under {args.out}")
        if not collector.reports:
            print("error: no RunReports captured", file=sys.stderr)
            return 1
    failures = check_schedulers([(args.nodes, args.n), (8, 32)])
    if failures:
        print(f"error: {failures} run(s) where the default scheduler "
              "disagrees with naive", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
