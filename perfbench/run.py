"""End-to-end benchmark of the SMA reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-suite --seed 1 \\
        --seconds 30 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; README.md in
this directory says why each workload exists and which end-to-end
metric each layer metric should move.

Every pass runs in a fresh interpreter (``child.py``).  A run starts
with one unmeasured warm-up pass.  With ``--trace 0`` it then repeats
measured passes for ``--seconds`` seconds (at least three) and reports
the end-to-end metrics: the mean ``wall_s`` and median peak RSS over
passes, round-trip percentiles over the samples of all passes, and the
median of at least five set-ups.
With ``--trace 1`` it runs one untraced and one traced pass, checks
that both simulated identical results, and reports the per-layer
metrics plus the traced pass's own wall time and its overhead.

Output gates run inside each pass, outside its timed phases.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the environment.  The exit status is non-zero
when a gate failed, and when the run could not complete (no result
line is printed then).  Scratch data lives in ``.perfbench-tmp/`` and
is deleted; the run's details and spans are kept in ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
MIN_SETUPS = 5
#: allowance beyond --seconds for the warm-up, the last pass, the
#: set-ups and the traced pass; with --seconds 30 a run ends in 170 s
MARGIN_S = 140.0


class BenchError(RuntimeError):
    """The run could not produce a result."""


def _group_members(pgid: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(") ", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a pass's process group (its server and
    pool worker included) and wait until all of it has exited."""
    deadline = time.monotonic() + 10
    while _group_members(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            raise BenchError(f"process group {pgid} survived SIGKILL")
        time.sleep(0.05)


class Runner:
    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        self.tmp = root / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
        self.out = root / ".perfbench-out"
        self.deadline = time.monotonic() + args.seconds + MARGIN_S

    def child(self, mode: str, spans: Path | None = None) -> dict:
        """Run one pass; returns its report plus ``setup_s``."""
        cmd = [sys.executable, str(HERE / "child.py"), self.args.workload,
               mode, "--seed", str(self.args.seed), "--tmp", str(self.tmp)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        env = {**os.environ, "PYTHONPATH": str(self.root / "src"),
               "PYTHONHASHSEED": "0"}
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        timer = threading.Timer(left, _kill_group, (proc.pid,))
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
            _stop_group(proc.pid)
        if first.strip() != "READY" or code != 0:
            raise BenchError(f"{mode} pass failed (exit status {code})")
        report = json.loads(rest.strip().splitlines()[-1])
        report["setup_s"] = ready - t0
        return report

    def untraced(self) -> tuple[dict, list[dict], dict]:
        passes, setups = [], []
        start = time.monotonic()
        while True:
            passes.append(self.child("measure"))
            setups.append(passes[-1]["setup_s"])
            if len(setups) < MIN_SETUPS:
                # set-up-only passes in between, so the set-up samples
                # spread over the run like the measured ones
                setups.append(self.child("setup")["setup_s"])
            spent = time.monotonic() - start
            if len(passes) >= MIN_PASSES and \
                    spent / len(passes) * (len(passes) + 1) \
                    > self.args.seconds:
                break
        while len(setups) < MIN_SETUPS:
            setups.append(self.child("setup")["setup_s"])
        cold = [x for p in passes for x in p["cold_rt"]]
        cached = [x for p in passes for x in p["cached_rt"]]

        def p90(samples):
            # inclusive: stays within the samples when they are few
            return statistics.quantiles(samples, n=10,
                                        method="inclusive")[8]

        metrics = {
            "setup_s": statistics.median(setups),
            # the host's speed swings between two levels for seconds
            # at a time; over a few passes the mean follows the share of
            # slow time smoothly where the median jumps between levels
            "wall_s": statistics.mean(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(
                p["peak_rss_mb"] for p in passes),
            "cold_rt_p50_ms": 1e3 * statistics.median(cold),
            "cold_rt_p90_ms": 1e3 * p90(cold),
            "cached_rt_p50_ms": 1e3 * statistics.median(cached),
            "cached_rt_p90_ms": 1e3 * p90(cached),
        }
        details = {"setup_s": setups, "cold_rt_n": len(cold),
                   "cached_rt_n": len(cached), "passes": [
            {key: p[key] for key in ("wall_s", "cold_rt", "cached_rt")}
            for p in passes]}
        return metrics, passes, details

    def traced(self) -> tuple[dict, list[dict], dict]:
        self.out.mkdir(exist_ok=True)
        spans = self.out / (f"spans-{self.args.workload}"
                            f"-seed{self.args.seed}.jsonl")
        plain = self.child("measure")
        traced = self.child("measure", spans=spans)
        metrics = dict(traced["per_layer"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
        details = {"untraced_wall_s": plain["wall_s"],
                   "spans": traced["spans"], "spans_file": str(spans)}
        return metrics, [plain, traced], details


def _git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _filesystem(path: Path) -> str | None:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    best, fstype = "", None
    target = str(path.resolve())
    with open("/proc/self/mounts") as handle:
        for line in handle:
            fields = line.split()
            mount = fields[1]
            inside = target == mount or target.startswith(
                mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources under src/repro; run from "
              "the repository root", file=sys.stderr)
        return 2

    runner = Runner(root, args)
    runner.tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner.child("warmup")
        if args.trace:
            metrics, passes, details = runner.traced()
            declared = spec["per_layer"]
        else:
            metrics, passes, details = runner.untraced()
            declared = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
        try:
            runner.tmp.parent.rmdir()
        except OSError:
            pass  # another run is using it

    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # same seed, same code: every pass must simulate the same results
    failed += sum(p["digest"] != passes[0]["digest"] for p in passes)
    env = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": passes[0]["env"]["numpy"],
        "git_revision": _git_revision(root),
        "source_fingerprint": passes[0]["env"]["source_fingerprint"],
        "scratch": str(runner.tmp),
        "scratch_fs": _filesystem(runner.tmp),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    runner.out.mkdir(exist_ok=True)
    record = runner.out / (f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json")
    record.write_text(json.dumps(
        {"env": env, "details": details, **result}, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
