#!/usr/bin/env python
"""Sweep-service smoke (CI).

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--n N]

Proves the service stack end to end against a *real* ``repro serve``
subprocess on a duplicate-heavy R-F1 slice:

* **coalescing** — two concurrent clients submit the same job grid;
  every duplicate must coalesce onto (or be served from) the first
  client's executions, so the service executes each distinct job
  exactly once.
* **bit-identity** — both clients' result sets must be byte-identical
  to a serial in-process ``run_jobs`` of the same grid.
* **a second grid** varying only a result-irrelevant field
  (``buckets``) must match the serial results and add store entries.
* **worker-kill recovery** — a pool worker is SIGKILLed mid-sweep; the
  scheduler must respawn the pool and finish every job correctly,
  without re-executing results that already reached the store.
* **experiment --url** — ``python -m repro experiment all --n 16
  --url URL`` must print byte for byte what ``repro experiment all
  --n 16`` prints, and the server's ``executed`` must grow by the local
  run's ``executed`` (one execution per distinct job of the suite).
* **clean drain** — ``POST /v1/shutdown`` must drain in-flight work
  and exit the server with status 0.
* **shared store** — after the drain, an in-process ``run_jobs`` of
  both grids with ``cache_dir`` set to the server's store must be
  served entirely from it (every job a hit, none executed), with
  results equal to the serial run.

Exit status is non-zero on any violated expectation.  ``repro serve``
runs in its own session, and its whole process group (the server and
its pool workers) is killed on the way out, pass or fail.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

try:
    from repro.harness.experiments import _configs
    from repro.harness.jobs import Job
    from repro.harness.parallel import harness_policy, run_jobs
    from repro.service.client import ServiceClient
except ImportError:
    print("run with PYTHONPATH=src", file=sys.stderr)
    raise


def canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def grid(n: int, buckets: int = 32) -> list[Job]:
    """A duplicate-heavy R-F1 slice: the latency sweep's interleaved
    sma/scalar pairs for two representative kernels."""
    jobs = []
    for latency in (2, 4, 8, 16):
        sma_cfg, scalar_cfg = _configs(latency=latency)
        for name in ("daxpy", "hydro"):
            jobs.append(Job("sma", name, n, sma_config=sma_cfg,
                            check=True, buckets=buckets))
            jobs.append(Job("scalar", name, n, scalar_config=scalar_cfg,
                            check=True, buckets=buckets))
    return jobs


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=96)
    args = parser.parse_args()

    tmp = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    env = {**os.environ, "PYTHONPATH": "src"}
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--store", str(tmp / "store"), "--workers", "2",
         "--retries", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, start_new_session=True,
    )
    try:
        line = server.stdout.readline().strip()
        if "http://" not in line:
            fail(f"server did not announce a URL: {line!r}")
        url = line.split()[-1]
        print(f"server up at {url}")
        client = ServiceClient(url)
        jobs = grid(args.n)

        # --- two concurrent clients + a worker kill mid-sweep --------
        outcomes: dict[str, list] = {}

        def run_client(tag: str) -> None:
            with ServiceClient(url) as own:
                outcomes[tag] = own.run(jobs, timeout=480)

        threads = [
            threading.Thread(target=run_client, args=(tag,))
            for tag in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        victim = None
        while time.monotonic() < deadline:
            stats = client.stats()
            if stats["running"] > 0 and stats["pool_pids"]:
                victim = stats["pool_pids"][0]
                break
            time.sleep(0.05)
        if victim is None:
            fail("sweep never started executing")
        os.kill(victim, signal.SIGKILL)
        print(f"killed pool worker {victim} mid-sweep")
        for thread in threads:
            thread.join(timeout=480)
            if thread.is_alive():
                fail("client did not finish")
        if set(outcomes) != {"a", "b"}:
            fail("a client died before returning results")

        # --- bit-identity vs the serial harness -----------------------
        serial = run_jobs(jobs)
        for tag, results in outcomes.items():
            for i, (got, want) in enumerate(zip(results, serial)):
                if canonical(got) != canonical(want):
                    fail(f"client {tag} job {i} diverges from serial "
                         "run_jobs")
        print(f"both clients bit-identical to serial across "
              f"{len(jobs)} jobs")

        # --- coalescing / no re-execution of flushed results ----------
        stats = client.stats()
        sweep = stats["sweep"]
        if sweep["executed"] != len(jobs):
            fail(f"expected {len(jobs)} executions (one per distinct "
                 f"job), saw {sweep['executed']}")
        if sweep["coalesced"] + sweep["hits"] < len(jobs):
            fail(f"duplicate client saw only {sweep['coalesced']} "
                 f"coalesced + {sweep['hits']} store hits")
        if sweep["respawns"] < 1:
            fail("worker kill did not register a pool respawn")
        print(f"coalescing ok: {sweep['coalesced']} coalesced, "
              f"{sweep['hits']} hits, {sweep['respawns']} respawn(s), "
              f"{sweep['retried']} retrie(s)")

        # --- a buckets-varied grid: same results, new entries --------
        varied = grid(args.n, buckets=7)
        before = client.stats()["store"]
        with ServiceClient(url) as other:
            dup = other.run(varied, timeout=480)
        for got, want in zip(dup, serial):
            if canonical(got) != canonical(want):
                fail("buckets-varied grid diverges from serial results")
        after = client.stats()["store"]
        if after["results"] <= before["results"]:
            fail("buckets-varied sweep added no store entries")
        print(f"buckets-varied grid ok: store holds {after['results']} "
              "results")

        # --- repro experiment --url runs the whole suite on the server
        def repro(*argv: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, env=env, timeout=480,
            )

        local = repro("experiment", "all", "--n", "16")
        before = client.stats()["sweep"]["executed"]
        remote = repro("experiment", "all", "--n", "16", "--url", url)
        if local.returncode != 0 or remote.returncode != 0:
            fail(f"experiment all exited {local.returncode} locally, "
                 f"{remote.returncode} with --url: "
                 f"{remote.stderr.strip()}")
        if remote.stdout != local.stdout:
            fail("experiment all --url printed tables that differ from "
                 "'repro experiment all'")
        want = int(re.search(r"(\d+) executed", local.stderr).group(1))
        executed = client.stats()["sweep"]["executed"] - before
        if executed != want:
            fail(f"experiment all --url executed {executed} job(s) on "
                 f"the server; the local run executed {want}")
        print(f"experiment --url ok: all 16 tables identical to the "
              f"local run, {executed} job(s) executed on the server")

        # --- clean drain ----------------------------------------------
        client.shutdown()
        code = server.wait(timeout=60)
        if code != 0:
            fail(f"server exited {code} after drain")
        print("clean drain: server exited 0")

        # --- the server's store is a sweep cache -----------------------
        both = jobs + varied
        with harness_policy() as sweep:
            local = run_jobs(both, cache_dir=tmp / "store")
        if sweep.hits != len(both) or sweep.executed != 0:
            fail(f"run_jobs on the server's store: {sweep.summary()}; "
                 f"expected {len(both)} hits and nothing executed")
        for i, (got, want) in enumerate(zip(local, serial + serial)):
            if canonical(got) != canonical(want):
                fail(f"store entry for job {i} diverges from serial "
                     "run_jobs")
        print(f"shared store ok: run_jobs served all {len(both)} jobs "
              "from the server's store")
        print("service smoke: all checks passed")
        return 0
    finally:
        # the server's pool workers share its process group
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.wait()


if __name__ == "__main__":
    sys.exit(main())
