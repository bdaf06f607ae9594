#!/usr/bin/env python
"""Throughput-regression gate for the simulator benchmark (CI).

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --smoke
    python scripts/check_bench_floor.py [BENCH_JSON]

Reads ``BENCH_sim_throughput.json`` (default: repo root) as written by
``benchmarks/bench_sim_throughput.py`` and fails when any measured
smoke ratio falls below its floor: the event-horizon scheduler against
naive ticking on the low-latency sweep, and the program-specialized
batch lane stepper against the interpreted SoA loop on the fine sweep
grid.  The floors live in the JSON itself
(``floors.smoke_event_horizon_vs_naive``, 2x by default, and
``floors.smoke_batch_codegen_vs_batch``, 1.5x — both deliberately
laxer than the full-benchmark assertions so shared CI runners don't
flake) so benchmark and gate can never disagree about the contract.
The SoA batch engine's points/second against per-point event-horizon
runs, and sharded against in-driver batch runs, are printed for
information only.

Exit status is non-zero on a miss, a malformed file, or implausible
numbers (schedulers disagreeing on simulated cycles), so the workflow
fails loudly instead of uploading a regressed artifact.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO / "BENCH_sim_throughput.json"

REQUIRED_SCHEDULERS = ("naive", "event-horizon")
REQUIRED_SWEEPS = ("scheduler",)

#: (sweep, numerator scheduler, denominator scheduler, floor key) per gate
GATES = (
    ("scheduler", "naive", "event-horizon", "smoke_event_horizon_vs_naive"),
)

#: floor key for the batch-codegen regime (specialized lane stepper +
#: saturation collapse vs the interpreted SoA loop, same grid both ways)
BATCH_CODEGEN_FLOOR_KEY = "smoke_batch_codegen_vs_batch"


def _check_sweep(label: str, sweep: dict) -> list[str]:
    problems: list[str] = []
    schedulers = sweep.get("schedulers", {})
    for name in REQUIRED_SCHEDULERS:
        row = schedulers.get(name)
        if not row:
            problems.append(f"{label}: missing scheduler entry {name!r}")
            continue
        for field in ("cycles", "seconds", "cycles_per_sec"):
            if not isinstance(row.get(field), (int, float)) \
                    or row[field] <= 0:
                problems.append(
                    f"{label}: {name}.{field} missing or non-positive"
                )
    if problems:
        return problems

    cycle_counts = {schedulers[n]["cycles"] for n in REQUIRED_SCHEDULERS}
    if len(cycle_counts) != 1:
        problems.append(
            f"{label}: schedulers disagree on simulated cycles: "
            + ", ".join(f"{n}={schedulers[n]['cycles']}"
                        for n in REQUIRED_SCHEDULERS)
        )
    return problems


def _check_batch_sweep(sweep: dict) -> list[str]:
    """Validate the fine-grid batch section (its shape differs from the
    scheduler shoot-outs: two engines, point counts, points/s)."""
    problems: list[str] = []
    for engine in ("batch", "event-horizon"):
        row = sweep.get(engine)
        if not isinstance(row, dict):
            problems.append(f"batch: missing engine entry {engine!r}")
            continue
        for field in ("points", "seconds", "points_per_sec"):
            if not isinstance(row.get(field), (int, float)) \
                    or row[field] <= 0:
                problems.append(
                    f"batch: {engine}.{field} missing or non-positive"
                )
    grid = sweep.get("grid", {})
    if not problems and sweep["batch"]["points"] != grid.get("points"):
        problems.append(
            "batch: engine did not cover the full grid: "
            f"{sweep['batch']['points']} != {grid.get('points')}"
        )
    return problems


def _check_batch_codegen_sweep(sweep: dict) -> list[str]:
    """Validate the batch-codegen section: interpreted vs specialized
    vs sharded runs of the *same* grid, so all three point counts must
    equal the grid's."""
    problems: list[str] = []
    engines = ("batch_interp", "batch_codegen", "batch_codegen_sharded")
    for engine in engines:
        row = sweep.get(engine)
        if not isinstance(row, dict):
            problems.append(
                f"batch-codegen: missing engine entry {engine!r}"
            )
            continue
        for field in ("points", "seconds", "points_per_sec"):
            if not isinstance(row.get(field), (int, float)) \
                    or row[field] <= 0:
                problems.append(
                    f"batch-codegen: {engine}.{field} missing or "
                    "non-positive"
                )
    grid_points = sweep.get("grid", {}).get("points")
    if not problems:
        for engine in engines:
            if sweep[engine]["points"] != grid_points:
                problems.append(
                    f"batch-codegen: {engine} did not cover the full "
                    f"grid: {sweep[engine]['points']} != {grid_points}"
                )
    return problems


def check(path: Path) -> list[str]:
    problems: list[str] = []
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        return [f"{path} not found; run "
                "'PYTHONPATH=src python benchmarks/bench_sim_throughput.py"
                " --smoke' first"]
    except json.JSONDecodeError as exc:
        return [f"{path} is not valid JSON: {exc}"]

    sweeps = data.get("sweeps", {})
    for label in REQUIRED_SWEEPS:
        sweep = sweeps.get(label)
        if not isinstance(sweep, dict):
            problems.append(f"missing sweep section {label!r}")
            continue
        problems.extend(_check_sweep(label, sweep))
    batch_sweep = sweeps.get("batch")
    if not isinstance(batch_sweep, dict):
        problems.append("missing sweep section 'batch'")
    else:
        problems.extend(_check_batch_sweep(batch_sweep))
    bc_sweep = sweeps.get("batch-codegen")
    if not isinstance(bc_sweep, dict):
        problems.append("missing sweep section 'batch-codegen'")
    else:
        problems.extend(_check_batch_codegen_sweep(bc_sweep))
    if problems:
        return problems

    floors = data.get("floors", {})
    for label, slow, fast, floor_key in GATES:
        floor = floors.get(floor_key)
        if not isinstance(floor, (int, float)) or floor <= 0:
            problems.append(f"floors.{floor_key} missing")
            continue
        rows = sweeps[label]["schedulers"]
        ratio = rows[slow]["seconds"] / rows[fast]["seconds"]
        print(f"{fast} vs {slow}: {ratio:.2f}x (floor {floor}x) on "
              f"{label} sweep, latencies "
              f"{tuple(sweeps[label].get('latencies', ()))}")
        if ratio < floor:
            problems.append(
                f"{fast} throughput floor missed: {ratio:.2f}x < "
                f"{floor}x vs {slow} on the {label} sweep"
            )

    # points/s, not seconds: the batch engine runs the full grid, the
    # per-point comparator a stratified subsample
    ratio = (batch_sweep["batch"]["points_per_sec"]
             / batch_sweep["event-horizon"]["points_per_sec"])
    print(f"batch vs per-point event-horizon: {ratio:.2f}x points/s on "
          f"the fine grid ({batch_sweep['grid']['points']} points) — "
          "informational; gated only by the full benchmark")

    floor = floors.get(BATCH_CODEGEN_FLOOR_KEY)
    if not isinstance(floor, (int, float)) or floor <= 0:
        problems.append(f"floors.{BATCH_CODEGEN_FLOOR_KEY} missing")
    else:
        ratio = (bc_sweep["batch_codegen"]["points_per_sec"]
                 / bc_sweep["batch_interp"]["points_per_sec"])
        grid = bc_sweep["grid"]
        print(f"batch-codegen vs interpreted batch: {ratio:.2f}x "
              f"points/s (floor {floor}x) on the fine grid "
              f"({grid['points']} points)")
        if ratio < floor:
            problems.append(
                f"batch-codegen throughput floor missed: {ratio:.2f}x "
                f"< {floor}x vs the interpreted batch engine"
            )
        sharded = bc_sweep["batch_codegen_sharded"]
        shard_ratio = (sharded["points_per_sec"]
                       / bc_sweep["batch_codegen"]["points_per_sec"])
        print(f"sharded (workers={sharded.get('workers')}) vs "
              f"in-driver: {shard_ratio:.2f}x points/s on "
              f"{sharded.get('cpu_count')} core(s) — informational; "
              "scaling is only gated on multi-core hosts")
    return problems


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_JSON
    problems = check(path)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("bench floor OK")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
