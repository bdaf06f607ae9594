#!/usr/bin/env python
"""Checkpoint round-trip gate (CI).

Usage::

    PYTHONPATH=src python scripts/check_snapshot_roundtrip.py [--n N]

For a small R-T5 kernel slice and one 2-node cluster, runs each
simulator partway with ``step_cycles``, snapshots it, restores the
snapshot (after a JSON round-trip) into a freshly built one, and
requires

* the restored state digest to equal the source's, and
* the resumed run to finish with the same cycle count, memory image,
  and final state digest as the same run left uninterrupted.

Every check runs once per loop in ``SMAMachine.SCHEDULERS``: the cut is
taken with that loop as the process-wide default (``set_fast_forward``)
and the resumed and uninterrupted runs use it too, so both a
naive-ticked and an event-horizon cut are gated.

Exit status is non-zero on any mismatch, so the workflow fails loudly
when a new piece of mutable machine state is added without teaching
``repro.core.checkpoint`` about it.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

REPO_SRC_HINT = (
    "run as: PYTHONPATH=src python scripts/check_snapshot_roundtrip.py"
)

try:
    from repro.config import MemoryConfig, QueueConfig, SMAConfig
    from repro.core import SMAMachine
    from repro.core.machine import set_fast_forward
    from repro.harness.experiments import PREFETCH_REPS
    from repro.harness.runner import (
        _fit_memory,
        _load_inputs,
        _prepare_cluster,
    )
    from repro.kernels import get_kernel, lower_sma
except ImportError as exc:  # pragma: no cover - CI misconfiguration
    raise SystemExit(f"cannot import repro ({exc}); {REPO_SRC_HINT}")

#: checkpoint cycle as a fraction of the uninterrupted run
CUT_FRACTIONS = (0.25, 0.75)
#: the nodes of the cluster checked beside the single machines
CLUSTER_KERNELS = ("daxpy", "hydro")


def build(names: tuple[str, ...], n: int, latency: int = 8):
    """A loaded machine for one kernel name; a loaded cluster, one node
    per name, built as ``run_cluster`` builds it, for several."""
    mem = MemoryConfig(latency=latency, bank_busy=max(1, latency // 2))
    if len(names) > 1:
        jobs = [get_kernel(name).instantiate(n) for name in names]
        cfg = SMAConfig(memory=mem, queues=QueueConfig())
        return _prepare_cluster(jobs, cfg)[0]
    kernel, inputs = get_kernel(names[0]).instantiate(n)
    lowered = lower_sma(kernel)
    cfg = SMAConfig(memory=_fit_memory(mem, lowered.layout),
                    queues=QueueConfig())
    machine = SMAMachine(lowered.access_program, lowered.execute_program,
                         cfg)
    _load_inputs(machine, lowered.layout, kernel, inputs)
    return machine


def check_kernel(names: tuple[str, ...], n: int) -> list[str]:
    problems: list[str] = []
    for scheduler in SMAMachine.SCHEDULERS:
        straight = build(names, n)
        want = straight.run(scheduler=scheduler)
        for fraction in CUT_FRACTIONS:
            cut = max(1, int(want.cycles * fraction))
            source = build(names, n)
            previous = set_fast_forward(scheduler != "naive")
            try:
                source.step_cycles(cut)
            finally:
                set_fast_forward(previous)
            snap = json.loads(json.dumps(source.snapshot()))

            resumed = build(names, n)
            resumed.restore(snap)
            where = f"{'+'.join(names)}/{scheduler}@{cut}"
            if resumed.state_digest() != source.state_digest():
                problems.append(f"{where}: digest differs after restore")
                continue
            got = resumed.run(scheduler=scheduler)
            if got.cycles != want.cycles:
                problems.append(
                    f"{where}: resumed run took {got.cycles} cycles, "
                    f"uninterrupted took {want.cycles}"
                )
            if not np.array_equal(resumed.memory._words,
                                  straight.memory._words):
                problems.append(f"{where}: final memory images differ")
            if resumed.state_digest() != straight.state_digest():
                problems.append(f"{where}: final state digests differ")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=48,
                        help="problem size (default 48)")
    args = parser.parse_args(argv)

    cases = [(name,) for name in PREFETCH_REPS] + [CLUSTER_KERNELS]
    problems: list[str] = []
    for names in cases:
        kernel_problems = check_kernel(names, args.n)
        status = "ok" if not kernel_problems else "FAIL"
        print(f"  {'+'.join(names):<16} {status}")
        problems.extend(kernel_problems)

    if problems:
        print(f"\n{len(problems)} problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    cuts = " and ".join(f"{int(100 * f)}%" for f in CUT_FRACTIONS)
    print(f"\nsnapshot round-trip ok: {len(PREFETCH_REPS)} machines and "
          f"a {len(CLUSTER_KERNELS)}-node cluster x "
          f"{len(SMAMachine.SCHEDULERS)} loops, cuts at {cuts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
