"""Simulator throughput: simulated cycles per wall-second.

This benchmark tracks the performance of the *simulator itself* (not the
simulated machines).  It runs the high-latency end of the R-F1 sweep —
the latency-dominated regime where the processors spend most cycles
waiting on memory — two ways:

``seed harness``
    the pre-optimization path: per-point :func:`compare_spec` (which
    re-instantiates, re-lowers and re-runs the reference interpreter at
    every sweep point) with cycle fast-forward disabled, i.e. the naive
    one-Python-iteration-per-cycle loop.

``job harness``
    the current path: declarative :class:`~repro.harness.jobs.Job` lists
    through :func:`~repro.harness.parallel.run_jobs` (memoized
    lowering/reference, ``--jobs`` fan-out on multi-core hosts) with
    cycle fast-forward enabled.

Both produce the same per-point speedup numbers and the same simulated
cycle counts — asserted below — so the wall-clock ratio is a pure
simulator-engineering win.

A second section races the two machine loops (``naive`` /
``event-horizon``) head-to-head on the *low*-latency end of the sweep,
where whole-machine idleness is rare and the event-horizon loop's
per-component contracts and decode-cached step paths have to carry the
win: it must beat naive ticking :data:`EVENT_HORIZON_FLOOR` x.

A third section races the SoA batch engine (:mod:`repro.batch`: the
program-specialized lane stepper plus saturation collapse) against
per-point event-horizon runs on a *fine* grid — queue depths 1..64 x 50
log-spaced latencies 1..512, 3200 distinct timing configurations of one
kernel.  This is the regime the batch engine exists for: the scalar
path simulates every point on its own, while the batch engine steps all
lanes in lockstep; the cost per sweep point must be at least
:data:`BATCH_FLOOR` x lower.  The same grid sharded over ``workers=2``
processes is recorded with the host core count (on a single-core host
sharding cannot beat the in-driver run, so its scaling floor only
applies on multi-core hosts).
All sweeps record their throughput in ``BENCH_sim_throughput.json``
(uploaded by CI, gated by ``scripts/check_bench_floor.py``).  Run
with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sim_throughput.py -s
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --smoke
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import MemoryConfig, SMAConfig
from repro.core import SMAMachine
from repro.core import machine as machine_mod
from repro.core.cluster import SMACluster
from repro.harness.experiments import LATENCY_REPS, _configs
from repro.harness.jobs import Job
from repro.harness.parallel import run_jobs
from repro.harness.runner import _fit_memory, _load_inputs, compare_spec
from repro.kernels import get_kernel, lower_sma

#: the high-latency end of the R-F1 sweep (bank_busy = latency/2)
LATENCIES = (64, 128, 256, 512)
N = 256
KERNELS = LATENCY_REPS


def _seed_harness_sweep() -> tuple[list[float], int, float]:
    """The seed harness path: naive ticking, no memoization, no jobs.

    Returns (per-point speedups, total simulated SMA cycles, wall secs).
    """
    speedups = []
    total_cycles = 0
    previous = machine_mod.set_fast_forward(False)
    start = time.perf_counter()
    try:
        for latency in LATENCIES:
            sma_cfg, scalar_cfg = _configs(latency=latency)
            for name in KERNELS:
                cmp_run = compare_spec(
                    get_kernel(name), N,
                    sma_config=sma_cfg, scalar_config=scalar_cfg,
                )
                speedups.append(cmp_run.speedup)
                total_cycles += cmp_run.sma.cycles
    finally:
        elapsed = time.perf_counter() - start
        machine_mod.set_fast_forward(previous)
    return speedups, total_cycles, elapsed


def _job_harness_sweep() -> tuple[list[float], int, float]:
    """The current harness path: fast-forward + memoized job layer."""
    joblist = []
    for latency in LATENCIES:
        sma_cfg, scalar_cfg = _configs(latency=latency)
        for name in KERNELS:
            joblist.append(Job("sma", name, N, sma_config=sma_cfg,
                               check=True))
            joblist.append(Job("scalar", name, N,
                               scalar_config=scalar_cfg, check=True))
    # fan out on multi-core hosts; a single-core host runs serially
    # (a process pool there only adds spawn overhead and cold caches)
    workers = min(4, os.cpu_count() or 1)
    start = time.perf_counter()
    results = run_jobs(joblist, workers=workers)
    elapsed = time.perf_counter() - start
    speedups = [
        scalar["cycles"] / sma["cycles"]
        for sma, scalar in zip(results[::2], results[1::2])
    ]
    total_cycles = sum(r["cycles"] for r in results[::2])
    return speedups, total_cycles, elapsed


@pytest.mark.benchmark(group="throughput")
def test_sim_throughput(capsys):
    seed_speedups, seed_cycles, seed_secs = _seed_harness_sweep()
    job_speedups, job_cycles, job_secs = _job_harness_sweep()

    # identical simulations: same cycle counts, same speedup table
    assert job_cycles == seed_cycles
    assert job_speedups == seed_speedups

    ratio = seed_secs / job_secs
    with capsys.disabled():
        print()
        print(f"high-latency R-F1 sweep (latencies {LATENCIES}, n={N}): "
              f"{seed_cycles} simulated SMA cycles")
        print(f"  seed harness (naive ticking)       : "
              f"{seed_cycles / seed_secs:12.0f} cycles/s ({seed_secs:.3f}s)")
        print(f"  job harness (fast-forward + jobs)  : "
              f"{job_cycles / job_secs:12.0f} cycles/s ({job_secs:.3f}s)")
        print(f"  wall-clock improvement             : {ratio:.2f}x")
    # acceptance floor: the latency-dominated regime is mostly idle
    # cycles, so fast-forward + memoization should win decisively
    assert ratio >= 3.0


# ---------------------------------------------------------------------------
# scheduler shoot-out: every registered scheduler on the low-latency sweep
# ---------------------------------------------------------------------------

#: the low-latency end of the R-F1 sweep — the regime where whole-machine
#: idleness is rare, so any win must come from per-component horizons
#: and the cheaper decode-cached step paths
SCHEDULER_LATENCIES = (8, 16, 32)

#: where the scheduler comparison (and ``main --smoke``) records results
BENCH_JSON = Path(__file__).resolve().parent.parent / \
    "BENCH_sim_throughput.json"

#: acceptance floor: event-horizon must beat naive ticking 3x on the full
#: low-latency sweep; the CI smoke gate (scripts/check_bench_floor.py)
#: asserts a laxer ratio to stay robust on noisy shared runners
EVENT_HORIZON_FLOOR = 3.0
SMOKE_FLOOR = 2.0

# ---------------------------------------------------------------------------
# batch regime: SoA lanes vs per-point event-horizon on a fine sweep grid
# ---------------------------------------------------------------------------

#: the fine-sweep regime the batch engine exists for: a queue-depth
#: 1..64 x latency 1..512 grid of daxpy, 3200 distinct timing
#: configurations.  50 log-spaced latencies cover the full R-F1 axis.
BATCH_KERNEL = "daxpy"
BATCH_N = 64
BATCH_LATENCIES = tuple(
    sorted({max(1, round(2 ** (i * 9 / 63))) for i in range(64)})
)
BATCH_QUEUE_DEPTHS = tuple(range(1, 65))
#: stride through the grid for the per-point comparator (timing every
#: point one machine at a time would take minutes; a stratified
#: subsample measures the same per-point cost)
BATCH_SUBSAMPLE = 47

#: acceptance floor (batch tentpole): the SoA engine must land at least
#: 8x lower cost per sweep point than per-point event-horizon runs on
#: the fine grid.  The smoke grid is small enough that numpy dispatch
#: overhead erases most of the gap, so its ratio is recorded but not
#: gated.
BATCH_FLOOR = 8.0

#: shard fan-out recorded by the batch regime; the scaling floor below
#: only binds on hosts with at least this many cores
BATCH_SHARD_WORKERS = 2
BATCH_SHARD_FLOOR = 1.2


def _build_sma(name: str, latency: int, n: int) -> SMAMachine:
    kernel, inputs = get_kernel(name).instantiate(n)
    lowered = lower_sma(kernel)
    sma_cfg, _ = _configs(latency=latency)
    cfg = SMAConfig(
        memory=_fit_memory(sma_cfg.memory, lowered.layout),
        queues=sma_cfg.queues,
    )
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    return machine


def _scheduler_sweep(scheduler, latencies, n, kernels, repeats):
    """Time the sweep under one scheduler; construction is excluded and
    the wall-clock is the best of ``repeats`` runs (machines are
    single-use, so each repeat rebuilds its own set).

    Returns (per-run result digests, total simulated cycles, seconds).
    """
    best = None
    digests = []
    total_cycles = 0
    for _ in range(repeats):
        machines = [
            _build_sma(name, latency, n)
            for latency in latencies for name in kernels
        ]
        start = time.perf_counter()
        results = [m.run(scheduler=scheduler) for m in machines]
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
        digests = [r.to_dict() for r in results]
        total_cycles = sum(r.cycles for r in results)
    return digests, total_cycles, best


def _sweep_comparison(latencies, n, kernels, repeats) -> dict:
    """Race every registered scheduler over one sweep.  Asserts all
    schedulers simulate the identical machine (same cycles, same full
    result digest)."""
    schedulers = {}
    reference_digests = None
    reference_name = next(iter(SMAMachine.SCHEDULERS))
    for scheduler in SMAMachine.SCHEDULERS:
        digests, cycles, secs = _scheduler_sweep(
            scheduler, latencies, n, kernels, repeats
        )
        if reference_digests is None:
            reference_digests = digests
        else:
            assert digests == reference_digests, (
                f"{scheduler} disagrees with {reference_name}"
            )
        schedulers[scheduler] = {
            "cycles": cycles,
            "seconds": round(secs, 6),
            "cycles_per_sec": round(cycles / secs, 1),
        }
    naive = schedulers["naive"]["seconds"]
    horizon = schedulers["event-horizon"]["seconds"]
    return {
        "latencies": list(latencies),
        "n": n,
        "kernels": list(kernels),
        "repeats": repeats,
        "schedulers": schedulers,
        "ratios": {
            "event_horizon_vs_naive": round(naive / horizon, 2),
        },
    }


def _build_sma_from_config(name: str, cfg: SMAConfig, n: int) -> SMAMachine:
    kernel, inputs = get_kernel(name).instantiate(n)
    lowered = lower_sma(kernel)
    cfg = replace(cfg, memory=_fit_memory(cfg.memory, lowered.layout))
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    return machine


def _batch_comparison(latencies=BATCH_LATENCIES,
                      depths=BATCH_QUEUE_DEPTHS,
                      n=BATCH_N, repeats=2,
                      subsample=BATCH_SUBSAMPLE,
                      shard_workers=BATCH_SHARD_WORKERS) -> dict:
    """Race the SoA batch engine against per-point event-horizon runs on
    the fine grid, and against itself sharded over ``shard_workers``
    processes.  The batch engine runs the whole grid, in the driver and
    sharded, timed interleaved within each repeat round so a noise
    spike on a shared host degrades both; the scalar path runs a
    stratified subsample, one ``machine.run()`` per point with
    construction outside the timed region.  Asserts the sharded run
    equals the in-driver run on every grid point, and the subsample's
    cycle counts are identical across the engines."""
    from repro.batch import run_batch
    from repro.harness.jobs import BatchJob

    jobs = BatchJob(
        BATCH_KERNEL, n, latencies=latencies, queue_depths=depths
    ).expand()

    best_batch = best_shard = None
    batch_results: dict = {}
    shard_results: dict = {}
    for _ in range(repeats):
        start = time.perf_counter()
        batch_results = run_batch(jobs)
        elapsed = time.perf_counter() - start
        if best_batch is None or elapsed < best_batch:
            best_batch = elapsed
        # pool spawn is part of the timed region: a real sweep pays it
        # once per run
        start = time.perf_counter()
        shard_results = run_batch(jobs, workers=shard_workers)
        elapsed = time.perf_counter() - start
        if best_shard is None or elapsed < best_shard:
            best_shard = elapsed
    assert len(batch_results) == len(jobs)
    assert shard_results == batch_results, (
        "sharded batch run disagrees with the in-driver run"
    )

    sample = list(range(0, len(jobs), subsample))
    best_point = None
    point_cycles: list[int] = []
    for _ in range(repeats):
        machines = [
            _build_sma_from_config(BATCH_KERNEL, jobs[i].sma_config, n)
            for i in sample
        ]
        start = time.perf_counter()
        runs = [m.run() for m in machines]
        elapsed = time.perf_counter() - start
        if best_point is None or elapsed < best_point:
            best_point = elapsed
        point_cycles = [r.cycles for r in runs]
    for i, cycles in zip(sample, point_cycles):
        assert cycles == batch_results[i]["cycles"], (
            f"batch disagrees with event-horizon at grid point {i}"
        )

    batch_pps = len(jobs) / best_batch
    shard_pps = len(jobs) / best_shard
    point_pps = len(sample) / best_point
    return {
        "kernel": BATCH_KERNEL,
        "n": n,
        "grid": {
            "latencies": len(latencies),
            "queue_depths": len(depths),
            "points": len(jobs),
        },
        "batch": {
            "points": len(jobs),
            "seconds": round(best_batch, 6),
            "points_per_sec": round(batch_pps, 1),
            "note": "specialized lane stepper + saturation collapse",
        },
        "batch_sharded": {
            "points": len(jobs),
            "workers": shard_workers,
            "cpu_count": os.cpu_count() or 1,
            "seconds": round(best_shard, 6),
            "points_per_sec": round(shard_pps, 1),
            "note": "pool spawn included; on a single-core host "
                    "sharding cannot beat the in-driver run",
        },
        "event-horizon": {
            "points": len(sample),
            "seconds": round(best_point, 6),
            "points_per_sec": round(point_pps, 1),
            "note": "one machine.run() per grid point, construction "
                    "excluded",
        },
        "ratios": {
            "batch_vs_event_horizon": round(batch_pps / point_pps, 2),
            "sharded_vs_inline": round(shard_pps / batch_pps, 2),
        },
    }


def run_scheduler_comparison(scheduler_latencies=SCHEDULER_LATENCIES,
                             n=N, kernels=KERNELS, repeats=2,
                             batch_latencies=BATCH_LATENCIES,
                             batch_depths=BATCH_QUEUE_DEPTHS,
                             batch_n=BATCH_N,
                             batch_subsample=BATCH_SUBSAMPLE) -> dict:
    """Run both shoot-out sweeps and package the numbers for
    ``BENCH_sim_throughput.json``: the low-latency regime (where the
    event-horizon floor is asserted) and the fine-grid batch regime
    (where the batch and shard-scaling floors are asserted)."""
    return {
        "benchmark": "bench_sim_throughput/scheduler_comparison",
        "sweeps": {
            "scheduler": _sweep_comparison(
                scheduler_latencies, n, kernels, repeats
            ),
            "batch": _batch_comparison(
                batch_latencies, batch_depths, batch_n, repeats,
                batch_subsample,
            ),
        },
        "floors": {
            "event_horizon_vs_naive": EVENT_HORIZON_FLOOR,
            "batch_vs_event_horizon": BATCH_FLOOR,
            "sharded_vs_inline_multicore": BATCH_SHARD_FLOOR,
            "smoke_event_horizon_vs_naive": SMOKE_FLOOR,
        },
    }


def write_bench_json(data: dict, path: Path = BENCH_JSON) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n")


def _print_comparison(data: dict) -> None:
    for label, sweep in data["sweeps"].items():
        if "schedulers" not in sweep:  # the fine-grid batch regime
            grid = sweep["grid"]
            print(f"fine-grid {label} shoot-out ({sweep['kernel']} "
                  f"n={sweep['n']}, {grid['latencies']} latencies x "
                  f"{grid['queue_depths']} queue depths = "
                  f"{grid['points']} points)")
            for engine in ("batch", "batch_sharded", "event-horizon"):
                row = sweep[engine]
                print(f"  {engine:<14}: {row['points_per_sec']:12.1f} "
                      f"points/s ({row['points']} points, "
                      f"{row['seconds']:.3f}s)")
            ratios = sweep["ratios"]
            print(f"  batch vs event-horizon      : "
                  f"{ratios['batch_vs_event_horizon']:.2f}x")
            print(f"  sharded vs in-driver        : "
                  f"{ratios['sharded_vs_inline']:.2f}x "
                  f"({sweep['batch_sharded']['cpu_count']} core(s))")
            continue
        print(f"R-F1 {label} shoot-out (latencies "
              f"{tuple(sweep['latencies'])}, n={sweep['n']}, best of "
              f"{sweep['repeats']}): "
              f"{sweep['schedulers']['naive']['cycles']} simulated cycles")
        for scheduler, row in sweep["schedulers"].items():
            print(f"  {scheduler:<14}: {row['cycles_per_sec']:12.0f} "
                  f"cycles/s ({row['seconds']:.3f}s)")
        ratios = sweep["ratios"]
        print(f"  event-horizon vs naive      : "
              f"{ratios['event_horizon_vs_naive']:.2f}x")


@pytest.mark.benchmark(group="throughput")
def test_scheduler_throughput(capsys):
    data = run_scheduler_comparison()
    write_bench_json(data)
    with capsys.disabled():
        print()
        _print_comparison(data)
        print(f"  (recorded in {BENCH_JSON.name})")
    # acceptance floor: per-component horizons + the decode-cached hot
    # loop must beat naive ticking 3x even in the low-latency regime,
    # where whole-machine idleness is rare
    assert data["sweeps"]["scheduler"]["ratios"][
        "event_horizon_vs_naive"] >= EVENT_HORIZON_FLOOR
    # acceptance floor (batch tentpole): the SoA engine must land >=8x
    # lower cost per sweep point than per-point event-horizon runs on
    # the fine grid
    assert data["sweeps"]["batch"]["ratios"][
        "batch_vs_event_horizon"] >= BATCH_FLOOR
    # the shard scaling floor only binds where shards get real cores
    if (os.cpu_count() or 1) >= BATCH_SHARD_WORKERS:
        assert data["sweeps"]["batch"]["ratios"][
            "sharded_vs_inline"] >= BATCH_SHARD_FLOOR


def main(argv=None) -> int:
    """CLI entry point: run the scheduler comparison and write
    ``BENCH_sim_throughput.json`` (what CI uploads as an artifact).

    ``--smoke`` shrinks the sweep for constrained CI runners; the floor
    for the smoke numbers is enforced separately by
    ``scripts/check_bench_floor.py``.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="simulator scheduler throughput benchmark"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small sweeps for CI (n=96, two scheduler "
                             "latencies, a smaller batch grid)")
    parser.add_argument("--out", default=str(BENCH_JSON),
                        help="output JSON path")
    args = parser.parse_args(argv)
    if args.smoke:
        smoke_latencies = tuple(
            sorted({max(1, round(2 ** (i * 9 / 11))) for i in range(12)})
        )
        data = run_scheduler_comparison(
            scheduler_latencies=(8, 32), n=96, repeats=3,
            batch_latencies=smoke_latencies,
            batch_depths=tuple(range(1, 17)),
            batch_subsample=13,
        )
    else:
        data = run_scheduler_comparison(repeats=3)
    write_bench_json(data, Path(args.out))
    _print_comparison(data)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# cluster fast-forward: the widened R-F8 grid, naive vs fast-forward
# ---------------------------------------------------------------------------

#: the widened R-F8 grid (node counts 1-8 x port widths), swept at R-F8's
#: own latency of 8 and three longer ones; bank_busy tracks latency/2 like
#: the R-F1 sweep
CLUSTER_NODES = (1, 2, 4, 8)
CLUSTER_PORTS = (1, 2, 4)
CLUSTER_LATENCIES = (8, 16, 64, 256)
CLUSTER_N = 96


def _build_cluster(nodes: int, latency: int, ports: int) -> SMACluster:
    spec = get_kernel("daxpy")
    jobs = [spec.instantiate(CLUSTER_N, 7 + j) for j in range(nodes)]
    lowered = []
    base = 16
    for kernel, _inputs in jobs:
        low = lower_sma(kernel, base=base)
        lowered.append(low)
        base = low.layout.end + 16
    mem = MemoryConfig(
        latency=latency, bank_busy=latency // 2, num_banks=16,
        accepts_per_cycle=ports,
    )
    cfg = SMAConfig(memory=replace(mem, size=max(mem.size, base + 16)))
    cluster = SMACluster(
        [(low.access_program, low.execute_program) for low in lowered], cfg
    )
    for (kernel, inputs), low in zip(jobs, lowered):
        for decl in kernel.arrays:
            cluster.load_array(low.layout.base(decl.name), inputs[decl.name])
    return cluster


def _cluster_sweep(latency: int, fast: bool) -> tuple[int, float]:
    """Run the node x port grid at one latency; returns (simulated
    cluster cycles, wall seconds)."""
    total_cycles = 0
    start = time.perf_counter()
    for nodes in CLUSTER_NODES:
        for ports in CLUSTER_PORTS:
            cluster = _build_cluster(nodes, latency, ports)
            total_cycles += cluster.run(
                scheduler="event-horizon" if fast else "naive"
            ).cycles
    return total_cycles, time.perf_counter() - start


@pytest.mark.benchmark(group="throughput")
def test_cluster_sim_throughput(capsys):
    rows = []
    for latency in CLUSTER_LATENCIES:
        naive_cycles, naive_secs = _cluster_sweep(latency, fast=False)
        ff_cycles, ff_secs = _cluster_sweep(latency, fast=True)
        # identical simulations either way
        assert ff_cycles == naive_cycles
        rows.append((latency, naive_cycles, naive_secs, ff_secs))
    with capsys.disabled():
        print()
        print(f"R-F8 grid (nodes {CLUSTER_NODES} x ports {CLUSTER_PORTS}, "
              f"daxpy n={CLUSTER_N}), naive vs cluster fast-forward:")
        for latency, cycles, naive_secs, ff_secs in rows:
            print(f"  latency {latency:3d}: {cycles:8d} cluster cycles  "
                  f"naive {naive_secs:6.2f}s  ff {ff_secs:6.2f}s  "
                  f"({naive_secs / ff_secs:.2f}x)")
    # acceptance floor: the event-horizon loop must win at least 2x
    # wall-clock at every latency — from R-F8's own latency of 8, where
    # the win is the fast node steps, to the latency-dominated high end,
    # where it is the shared clock jump
    for latency, _, naive_secs, ff_secs in rows:
        assert naive_secs / ff_secs >= 2.0, f"latency {latency}"


if __name__ == "__main__":
    raise SystemExit(main())
