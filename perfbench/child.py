"""One benchmark pass in a fresh interpreter (started by ``run.py``).

Usage, from the repository root with ``PYTHONPATH=src``::

    python3 perfbench/child.py WORKLOAD {setup,warmup,measure} \\
        --seed N --tmp DIR [--spans FILE]

The pass builds its workload (imports, job lists, for ``service-mix``
also the server and one warm-up round trip) and prints ``READY``; the
parent times the interpreter start up to that line as ``setup_s``.
``measure`` then runs the timed phases and the output gates; with
``--spans`` it installs the span wrappers first and writes the spans to
FILE at the end.  The last stdout line is the pass report as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import workloads


def environment() -> dict:
    import numpy

    from repro.harness.parallel import code_fingerprint

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "source_fingerprint": code_fingerprint(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("mode", choices=("setup", "warmup", "measure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    ctx = workloads.Context(args.seed, args.tmp, Path.cwd())
    workload = workloads.WORKLOADS[args.workload](ctx)
    print("READY", flush=True)
    report: dict = {}
    try:
        if args.mode == "warmup":
            workload.warmup()
        elif args.mode == "measure":
            recorder = None
            if args.spans is not None:
                import spans

                recorder = spans.Recorder()
                spans.install(recorder)
            report = workload.measure(recorder)
            if recorder is not None:
                from repro.harness.experiments import EXPERIMENTS

                report["per_layer"] = spans.layer_metrics(
                    recorder.spans, report["counters"], list(EXPERIMENTS))
                report["spans"] = len(recorder.spans)
                recorder.dump(args.spans)
            report["env"] = environment()
    finally:
        workload.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
