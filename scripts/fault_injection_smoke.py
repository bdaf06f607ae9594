#!/usr/bin/env python
"""Fault-injection smoke for the sweep harness (CI).

Usage::

    PYTHONPATH=src python scripts/fault_injection_smoke.py [--n N]

Proves the harness's recovery paths against *injected* failures on a
small R-F1 slice, end to end through ``run_experiment``:

* **worker-kill** — a pool worker SIGKILLs itself mid-sweep; with
  retries the sweep must still complete, a ``--resume``-style rerun must
  re-execute **zero** jobs, and the resulting table must be
  byte-identical to a fault-free sweep's.
* **hung-job** — one job sleeps far past the per-job timeout; the pool
  must be recycled, that job charged exactly one ``Timeout`` and
  retried, and the table must again be byte-identical.
* **cache-corrupt** — a flushed cache entry is cut in half; the next
  sweep must catch it by its digest, quarantine it
  (``*.result.corrupt``), re-execute only that job, and again produce
  the byte-identical table.

Exit status is non-zero on any violated expectation.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

try:
    from repro.harness import harness_policy, run_experiment
    from repro.harness.faults import FaultSpec
except ImportError as exc:  # pragma: no cover - CI misconfiguration
    raise SystemExit(
        f"cannot import repro ({exc}); run as: "
        "PYTHONPATH=src python scripts/fault_injection_smoke.py"
    )

EXPERIMENT = "R-F1"


def clean_table(n: int, workdir: Path) -> str:
    cache = workdir / "clean"
    cache.mkdir()
    with harness_policy() as stats:
        table = run_experiment(EXPERIMENT, n=n,
                               cache_dir=str(cache)).to_csv()
    print(f"  clean sweep: {stats.summary()}")
    return table


def check_worker_kill(n: int, workdir: Path, want: str) -> list[str]:
    problems: list[str] = []
    cache = workdir / "worker-kill"
    cache.mkdir()
    spec = FaultSpec("worker-kill",
                     token_path=str(cache / ".fault-token"))
    with harness_policy(inject=spec, retries=2) as stats:
        table = run_experiment(EXPERIMENT, n=n, jobs=2,
                               cache_dir=str(cache)).to_csv()
    print(f"  worker-kill sweep: {stats.summary()}")
    if stats.respawns < 1:
        problems.append("worker-kill: fault did not fire "
                        "(no pool respawn observed)")
    if table != want:
        problems.append("worker-kill: table differs from fault-free run")

    # resume: everything was flushed, so nothing re-executes
    with harness_policy() as stats:
        resumed = run_experiment(EXPERIMENT, n=n,
                                 cache_dir=str(cache)).to_csv()
    print(f"  resume sweep: {stats.summary()}")
    if stats.executed != 0:
        problems.append(
            f"resume: {stats.executed} job(s) re-executed, expected 0"
        )
    if resumed != want:
        problems.append("resume: table differs from fault-free run")
    return problems


def check_hung_job(n: int, workdir: Path, want: str) -> list[str]:
    problems: list[str] = []
    cache = workdir / "hung-job"
    cache.mkdir()
    spec = FaultSpec("sleep", 30.0,
                     token_path=str(cache / ".fault-token"))
    with harness_policy(inject=spec, timeout=3.0, retries=2) as stats:
        table = run_experiment(EXPERIMENT, n=n, jobs=2,
                               cache_dir=str(cache)).to_csv()
    print(f"  hung-job sweep: {stats.summary()}")
    if stats.respawns < 1:
        problems.append("hung-job: no pool respawn observed (the "
                        "timeout did not recycle the pool)")
    if stats.failures != {"Timeout": 1}:
        problems.append(f"hung-job: failures {stats.failures}, "
                        "expected exactly one Timeout")
    if table != want:
        problems.append("hung-job: table differs from fault-free run")
    return problems


def check_cache_corrupt(n: int, workdir: Path, want: str) -> list[str]:
    problems: list[str] = []
    cache = workdir / "cache-corrupt"
    cache.mkdir()
    spec = FaultSpec("cache-corrupt",
                     token_path=str(cache / ".fault-token"))
    with harness_policy(inject=spec) as stats:
        table = run_experiment(EXPERIMENT, n=n,
                               cache_dir=str(cache)).to_csv()
    print(f"  corrupting sweep: {stats.summary()}")
    if table != want:
        problems.append("cache-corrupt: table differs from "
                        "fault-free run")

    with harness_policy() as stats:
        rerun = run_experiment(EXPERIMENT, n=n,
                               cache_dir=str(cache)).to_csv()
    print(f"  quarantining sweep: {stats.summary()}")
    if stats.quarantined != 1:
        problems.append(
            f"cache-corrupt: quarantined {stats.quarantined} "
            "entr(ies), expected exactly 1"
        )
    if stats.executed != 1:
        problems.append(
            f"cache-corrupt: re-executed {stats.executed} job(s), "
            "expected exactly the quarantined one"
        )
    if not list(cache.glob("*.result.corrupt")):
        problems.append("cache-corrupt: no *.result.corrupt file left "
                        "behind")
    if rerun != want:
        problems.append("cache-corrupt rerun: table differs from "
                        "fault-free run")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=48,
                        help="problem size (default 48)")
    args = parser.parse_args(argv)

    problems: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        print(f"{EXPERIMENT} @ n={args.n}")
        want = clean_table(args.n, workdir)
        problems += check_worker_kill(args.n, workdir, want)
        problems += check_hung_job(args.n, workdir, want)
        problems += check_cache_corrupt(args.n, workdir, want)

    if problems:
        print(f"\n{len(problems)} problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("\nfault-injection smoke ok: worker-kill recovered, resume "
          "re-executed nothing, hung job timed out and retried, corrupt "
          "entry quarantined, all tables identical to the fault-free "
          "sweep")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
