#!/usr/bin/env python
"""CI smoke for the SoA batch backend (``repro.batch``).

Runs a small latency x queue-depth grid of three kernels — a pure
streaming kernel, a loss-of-decoupling recurrence, and a computed
gather — through the batch engine with per-lane output verification
armed, two ways:

* in the driver (the program-specialized lane stepper with saturation
  collapse, the default dispatch path), and
* sharded over two worker processes (``workers=2``).

Both must produce bit-identical result dicts for every grid point, and
every lane is additionally re-executed on the per-point path and
required to match the *full result dict* exactly: cycles, instruction
counts, every stall bucket (keys, order, counts), memory traffic, and
occupancy statistics.

Exit status is non-zero on any divergence, so the workflow fails
loudly if the lockstep engine ever drifts from the per-point path.

Usage::

    PYTHONPATH=src python scripts/batch_smoke.py
"""

from __future__ import annotations

import sys

from repro.batch import run_batch
from repro.harness.jobs import BatchJob, run_job

KERNELS = ("daxpy", "tridiag", "computed_gather")
LATENCIES = (1, 4, 16, 64)
QUEUE_DEPTHS = (1, 4, 8, 32)
N = 48


def main() -> int:
    jobs = []
    for kernel in KERNELS:
        jobs.extend(
            BatchJob(
                kernel, N, latencies=LATENCIES,
                queue_depths=QUEUE_DEPTHS, check=True,
            ).expand()
        )
    results = run_batch(jobs)
    if len(results) != len(jobs):
        missing = [i for i in range(len(jobs)) if i not in results]
        print(f"FAIL: batch engine skipped lanes {missing}",
              file=sys.stderr)
        return 1

    # the sharded run must be indistinguishable from the in-driver run
    # on every grid point, not just a subsample
    sharded = run_batch(jobs, workers=2)
    bad = [i for i in results if sharded.get(i) != results[i]]
    if bad:
        print(f"FAIL: sharded (workers=2) batch run diverges from the "
              f"in-driver run at lanes {bad[:8]}"
              f"{'...' if len(bad) > 8 else ''}", file=sys.stderr)
        return 1

    mismatches = 0
    for i, job in enumerate(jobs):
        want = run_job(job)
        got = results[i]
        if got != want:
            mismatches += 1
            diff = {
                k for k in set(want) | set(got)
                if want.get(k) != got.get(k)
            }
            print(f"FAIL: lane {i} ({job.kernel}, "
                  f"latency={job.sma_config.memory.latency}, "
                  f"depth={job.sma_config.queues.load_queue_depth}) "
                  f"diverges in {sorted(diff)}", file=sys.stderr)
    if mismatches:
        return 1
    print(f"batch smoke OK: {len(jobs)} lanes run "
          f"({len(KERNELS)} kernels x {len(LATENCIES)} latencies x "
          f"{len(QUEUE_DEPTHS)} depths, outputs verified) in-driver and "
          f"sharded (bit-identical), every lane re-checked bit-exact "
          f"against the per-point path")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
