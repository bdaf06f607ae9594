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

A second section races the four machine schedulers (``naive`` /
``joint-idle`` / ``event-horizon`` / ``codegen``) head-to-head on two
regimes: the *low*-latency end of the sweep — where joint idleness is
rare and the event-horizon scheduler's per-component contracts and
decode-cached step paths have to carry the win — and the high-latency
(latency-dominated) band, where the codegen backend's specialized
straight-line loop must beat the interpreted event-horizon loop
:data:`CODEGEN_FLOOR` x.

A third section races the SoA batch engine (:mod:`repro.batch`)
against per-point codegen on a *fine* grid — queue depths 1..64 x 50
log-spaced latencies 1..512, 3200 distinct timing configurations of
one kernel.  This is the regime the batch engine exists for: every
point is a distinct config, so codegen pays its compile per point,
while the batch engine steps all lanes in lockstep; the cost per sweep
point must be at least :data:`BATCH_FLOOR` x lower.

A fourth section races the batch engine against *itself* on the same
fine grid: the interpreted SoA loop (``compiled=False``, the PR-7
engine) vs the program-specialized batch lane stepper
(:mod:`repro.batch.emitter` — a straight-line numpy loop emitted per
decoded AP/EP program, plus saturation collapse: queue-depth lanes
whose caps strictly dominate a probe lane's observed queue peaks are
served from the probe's result without running).  The compiled path
must cost at least :data:`BATCH_CODEGEN_FLOOR` x less per point, and
the same grid sharded over ``workers=2`` processes is recorded (with
the host core count — on a single-core host sharding cannot beat the
in-driver run, so its scaling floor only applies on multi-core hosts).
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

from repro.codegen import compiled_loop_for
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
# scheduler shoot-out: every registered scheduler, two latency regimes
# ---------------------------------------------------------------------------

#: the low-latency end of the R-F1 sweep — the regime where whole-machine
#: idleness is rare and the joint-idle fast-forward has little to jump
#: over, so any win must come from per-component horizons and the cheaper
#: decode-cached step paths
SCHEDULER_LATENCIES = (8, 16, 32)

#: the codegen shoot-out band — the latency-dominated high end of the
#: R-F1 sweep (the same band the harness section above runs), where the
#: generated loop's cheap planning/jump path compounds with its cheap
#: live-cycle body
CODEGEN_LATENCIES = LATENCIES

#: where the scheduler comparison (and ``main --smoke``) records results
BENCH_JSON = Path(__file__).resolve().parent.parent / \
    "BENCH_sim_throughput.json"

#: acceptance floors: event-horizon must beat the PR-3 fast-forward
#: (joint-idle) 3x on the full low-latency sweep, and the codegen
#: backend must beat the interpreted event-horizon loop 3x on the full
#: high-latency sweep; the CI smoke gates (scripts/check_bench_floor.py)
#: assert laxer ratios to stay robust on noisy shared runners
EVENT_HORIZON_FLOOR = 3.0
CODEGEN_FLOOR = 3.0
SMOKE_FLOOR = 2.0
CODEGEN_SMOKE_FLOOR = 1.5

# ---------------------------------------------------------------------------
# batch regime: SoA lanes vs per-point codegen on a fine sweep grid
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
#: stride through the grid for the codegen comparator (every point is a
#: distinct config, so timing the whole grid under codegen would take
#: minutes; a stratified subsample measures the same per-point cost)
BATCH_SUBSAMPLE = 47

#: acceptance floor (batch tentpole): the SoA engine must land at least
#: 8x lower cost per sweep point than per-point codegen on the fine
#: grid (codegen pays a per-config compile there — a fine grid gives
#: every point a distinct config, so compilation cannot amortize).
#: Measured ~13x on the reference machine; the smoke grid is small
#: enough that numpy dispatch overhead narrows the gap, hence its laxer
#: floor.
BATCH_FLOOR = 8.0
BATCH_SMOKE_FLOOR = 2.0

#: acceptance floor (batch-codegen tentpole): the program-specialized
#: batch lane stepper (+ saturation collapse) must land at least 3x
#: lower cost per sweep point than the interpreted SoA loop on the
#: fine grid.  The smoke grid collapses far less (fewer lanes per
#: saturation class) and numpy dispatch overhead looms larger, hence
#: its laxer floor.
BATCH_CODEGEN_FLOOR = 3.0
BATCH_CODEGEN_SMOKE_FLOOR = 1.5

#: shard fan-out recorded by the batch-codegen regime; the scaling
#: floor below only binds on hosts with at least this many cores
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
    single-use, so each repeat rebuilds its own set).  The codegen
    scheduler's compile step is warmed outside the timed region — the
    artifact cache makes compilation a once-per-(program, config) cost,
    not a per-run cost, and ``repro profile`` attributes it separately.

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
        if scheduler == "codegen":
            for m in machines:
                compiled_loop_for(m)
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
    joint = schedulers["joint-idle"]["seconds"]
    horizon = schedulers["event-horizon"]["seconds"]
    codegen = schedulers["codegen"]["seconds"]
    return {
        "latencies": list(latencies),
        "n": n,
        "kernels": list(kernels),
        "repeats": repeats,
        "schedulers": schedulers,
        "ratios": {
            "event_horizon_vs_naive": round(naive / horizon, 2),
            "event_horizon_vs_joint_idle": round(joint / horizon, 2),
            "codegen_vs_naive": round(naive / codegen, 2),
            "codegen_vs_event_horizon": round(horizon / codegen, 2),
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
                      subsample=BATCH_SUBSAMPLE) -> dict:
    """Race the SoA batch engine against per-point codegen on the fine
    grid.  The batch engine runs the whole grid; codegen runs a
    stratified subsample with its per-config compile *inside* the timed
    region (on a fine grid every point is a distinct configuration, so
    the compile is a real per-point cost, unlike the coarse sweeps
    above where it amortizes).  Asserts the subsample's cycle counts
    are identical across the two engines."""
    from repro.batch import run_batch
    from repro.harness.jobs import BatchJob

    jobs = BatchJob(
        BATCH_KERNEL, n, latencies=latencies, queue_depths=depths
    ).expand()

    best_batch = None
    batch_results: dict = {}
    for _ in range(repeats):
        start = time.perf_counter()
        batch_results = run_batch(jobs)
        elapsed = time.perf_counter() - start
        if best_batch is None or elapsed < best_batch:
            best_batch = elapsed
    assert len(batch_results) == len(jobs)

    from repro.codegen import clear_cache

    sample = list(range(0, len(jobs), subsample))
    best_cg = None
    cg_cycles: list[int] = []
    for _ in range(repeats):
        machines = [
            _build_sma_from_config(BATCH_KERNEL, jobs[i].sma_config, n)
            for i in sample
        ]
        # a real fine sweep compiles each of its thousands of configs
        # exactly once; clearing the artifact cache keeps each repeat
        # paying that same once-per-config cost instead of racing a
        # warm cache the real sweep would never have
        clear_cache()
        start = time.perf_counter()
        runs = []
        for m in machines:
            compiled_loop_for(m)
            runs.append(m.run(scheduler="codegen"))
        elapsed = time.perf_counter() - start
        if best_cg is None or elapsed < best_cg:
            best_cg = elapsed
        cg_cycles = [r.cycles for r in runs]
    for i, cycles in zip(sample, cg_cycles):
        assert cycles == batch_results[i]["cycles"], (
            f"batch disagrees with codegen at grid point {i}"
        )

    batch_pps = len(jobs) / best_batch
    cg_pps = len(sample) / best_cg
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
        },
        "codegen": {
            "points": len(sample),
            "seconds": round(best_cg, 6),
            "points_per_sec": round(cg_pps, 1),
            "note": "per-config compile included: every fine-grid "
                    "point is a distinct configuration",
        },
        "ratios": {
            "batch_vs_codegen": round(batch_pps / cg_pps, 2),
        },
    }


def _batch_codegen_comparison(latencies=BATCH_LATENCIES,
                              depths=BATCH_QUEUE_DEPTHS,
                              n=BATCH_N, repeats=2,
                              shard_workers=BATCH_SHARD_WORKERS) -> dict:
    """Race the batch engine against itself on the fine grid: the
    interpreted SoA loop (``compiled=False``) vs the program-specialized
    lane stepper with saturation collapse (``compiled=None``), plus the
    same grid sharded over ``shard_workers`` processes.  Asserts all
    three produce identical result dicts for every grid point — the
    batch codegen bit-exactness contract, checked across the whole
    grid, not a subsample."""
    from repro.batch import run_batch
    from repro.batch.cache import clear_cache
    from repro.harness.jobs import BatchJob

    jobs = BatchJob(
        BATCH_KERNEL, n, latencies=latencies, queue_depths=depths
    ).expand()

    # the per-program compile is warmed outside the timed region (like
    # the codegen scheduler above: one compile serves the whole grid,
    # and the lane-group fingerprint cache makes it a once-per-program
    # cost).  The three modes are timed *interleaved* within each
    # repeat round — best-of mins from back-to-back runs — so a noise
    # spike on a shared host degrades all three rather than skewing
    # the ratio
    clear_cache()
    run_batch(jobs)
    cpus = os.cpu_count() or 1
    best_interp = best_cg = best_shard = None
    interp_results: dict = {}
    cg_results: dict = {}
    shard_results: dict = {}
    for _ in range(repeats):
        # interpreted SoA baseline (the pre-codegen engine):
        # compiled=False forces the interpreter and disables collapse
        start = time.perf_counter()
        interp_results = run_batch(jobs, compiled=False)
        elapsed = time.perf_counter() - start
        if best_interp is None or elapsed < best_interp:
            best_interp = elapsed
        # program-specialized lane stepper + saturation collapse
        start = time.perf_counter()
        cg_results = run_batch(jobs)
        elapsed = time.perf_counter() - start
        if best_cg is None or elapsed < best_cg:
            best_cg = elapsed
        # the same grid sharded across worker processes (pool spawn is
        # part of the timed region — a real sweep pays it once per run)
        start = time.perf_counter()
        shard_results = run_batch(jobs, workers=shard_workers)
        elapsed = time.perf_counter() - start
        if best_shard is None or elapsed < best_shard:
            best_shard = elapsed
    assert len(interp_results) == len(jobs)
    assert cg_results == interp_results, (
        "batch codegen disagrees with the interpreted batch engine"
    )
    assert shard_results == interp_results, (
        "sharded batch codegen disagrees with the in-driver run"
    )

    interp_pps = len(jobs) / best_interp
    cg_pps = len(jobs) / best_cg
    shard_pps = len(jobs) / best_shard
    return {
        "kernel": BATCH_KERNEL,
        "n": n,
        "grid": {
            "latencies": len(latencies),
            "queue_depths": len(depths),
            "points": len(jobs),
        },
        "batch_interp": {
            "points": len(jobs),
            "seconds": round(best_interp, 6),
            "points_per_sec": round(interp_pps, 1),
        },
        "batch_codegen": {
            "points": len(jobs),
            "seconds": round(best_cg, 6),
            "points_per_sec": round(cg_pps, 1),
            "note": "specialized lane stepper + saturation collapse; "
                    "per-program compile warmed (once-per-grid cost)",
        },
        "batch_codegen_sharded": {
            "points": len(jobs),
            "workers": shard_workers,
            "cpu_count": cpus,
            "seconds": round(best_shard, 6),
            "points_per_sec": round(shard_pps, 1),
            "note": "pool spawn included; on a single-core host "
                    "sharding cannot beat the in-driver run",
        },
        "ratios": {
            "batch_codegen_vs_batch": round(cg_pps / interp_pps, 2),
            "sharded_vs_inline": round(shard_pps / cg_pps, 2),
        },
    }


def run_scheduler_comparison(scheduler_latencies=SCHEDULER_LATENCIES,
                             codegen_latencies=CODEGEN_LATENCIES,
                             n=N, kernels=KERNELS, repeats=2,
                             batch_latencies=BATCH_LATENCIES,
                             batch_depths=BATCH_QUEUE_DEPTHS,
                             batch_n=BATCH_N,
                             batch_subsample=BATCH_SUBSAMPLE,
                             batch_codegen_latencies=None,
                             batch_codegen_depths=None) -> dict:
    """Run all three shoot-out sweeps and package the numbers for
    ``BENCH_sim_throughput.json``: the low-latency regime (where the
    event-horizon floor is asserted), the latency-dominated regime
    (where the codegen floor is asserted), and the fine-grid regime
    (where the batch floor is asserted)."""
    return {
        "benchmark": "bench_sim_throughput/scheduler_comparison",
        "sweeps": {
            "scheduler": _sweep_comparison(
                scheduler_latencies, n, kernels, repeats
            ),
            "codegen": _sweep_comparison(
                codegen_latencies, n, kernels, repeats
            ),
            "batch": _batch_comparison(
                batch_latencies, batch_depths, batch_n, repeats,
                batch_subsample,
            ),
            "batch-codegen": _batch_codegen_comparison(
                batch_codegen_latencies or batch_latencies,
                batch_codegen_depths or batch_depths,
                batch_n, repeats,
            ),
        },
        "floors": {
            "event_horizon_vs_joint_idle": EVENT_HORIZON_FLOOR,
            "codegen_vs_event_horizon": CODEGEN_FLOOR,
            "batch_vs_codegen": BATCH_FLOOR,
            "batch_codegen_vs_batch": BATCH_CODEGEN_FLOOR,
            "sharded_vs_inline_multicore": BATCH_SHARD_FLOOR,
            "smoke_event_horizon_vs_naive": SMOKE_FLOOR,
            "smoke_codegen_vs_event_horizon": CODEGEN_SMOKE_FLOOR,
            "smoke_batch_vs_codegen": BATCH_SMOKE_FLOOR,
            "smoke_batch_codegen_vs_batch": BATCH_CODEGEN_SMOKE_FLOOR,
        },
    }


def write_bench_json(data: dict, path: Path = BENCH_JSON) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n")


def _print_comparison(data: dict) -> None:
    for label, sweep in data["sweeps"].items():
        if "batch_interp" in sweep:  # the batch-codegen regime
            grid = sweep["grid"]
            sharded = sweep["batch_codegen_sharded"]
            print(f"fine-grid {label} shoot-out ({sweep['kernel']} "
                  f"n={sweep['n']}, {grid['points']} points)")
            for engine in ("batch_interp", "batch_codegen"):
                row = sweep[engine]
                print(f"  {engine:<21}: {row['points_per_sec']:12.1f} "
                      f"points/s ({row['seconds']:.3f}s)")
            print(f"  sharded (workers={sharded['workers']})   : "
                  f"{sharded['points_per_sec']:12.1f} points/s "
                  f"({sharded['seconds']:.3f}s, "
                  f"{sharded['cpu_count']} core(s))")
            ratios = sweep["ratios"]
            print(f"  batch-codegen vs batch      : "
                  f"{ratios['batch_codegen_vs_batch']:.2f}x")
            print(f"  sharded vs in-driver        : "
                  f"{ratios['sharded_vs_inline']:.2f}x")
            continue
        if "schedulers" not in sweep:  # the fine-grid batch regime
            grid = sweep["grid"]
            print(f"fine-grid {label} shoot-out ({sweep['kernel']} "
                  f"n={sweep['n']}, {grid['latencies']} latencies x "
                  f"{grid['queue_depths']} queue depths = "
                  f"{grid['points']} points)")
            for engine in ("batch", "codegen"):
                row = sweep[engine]
                print(f"  {engine:<14}: {row['points_per_sec']:12.1f} "
                      f"points/s ({row['points']} points, "
                      f"{row['seconds']:.3f}s)")
            print(f"  batch vs codegen            : "
                  f"{sweep['ratios']['batch_vs_codegen']:.2f}x")
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
        print(f"  event-horizon vs joint-idle : "
              f"{ratios['event_horizon_vs_joint_idle']:.2f}x")
        print(f"  codegen vs naive            : "
              f"{ratios['codegen_vs_naive']:.2f}x")
        print(f"  codegen vs event-horizon    : "
              f"{ratios['codegen_vs_event_horizon']:.2f}x")


@pytest.mark.benchmark(group="throughput")
def test_scheduler_throughput(capsys):
    data = run_scheduler_comparison()
    write_bench_json(data)
    with capsys.disabled():
        print()
        _print_comparison(data)
        print(f"  (recorded in {BENCH_JSON.name})")
    # acceptance floor (PR-4 tentpole): per-component horizons +
    # decode-cached hot loop must beat the PR-3 joint-idle fast-forward
    # 3x even in the low-latency regime it was weakest in
    assert data["sweeps"]["scheduler"]["ratios"][
        "event_horizon_vs_joint_idle"] >= EVENT_HORIZON_FLOOR
    # acceptance floor (codegen tentpole): the generated straight-line
    # loop must beat the interpreted event-horizon loop 3x on the
    # latency-dominated band
    assert data["sweeps"]["codegen"]["ratios"][
        "codegen_vs_event_horizon"] >= CODEGEN_FLOOR
    # acceptance floor (batch tentpole): the SoA engine must land >=8x
    # lower cost per sweep point than per-point codegen on the fine grid
    assert data["sweeps"]["batch"]["ratios"][
        "batch_vs_codegen"] >= BATCH_FLOOR
    # acceptance floor (batch-codegen tentpole): the specialized lane
    # stepper + saturation collapse must beat the interpreted SoA loop
    # 3x on the same grid
    assert data["sweeps"]["batch-codegen"]["ratios"][
        "batch_codegen_vs_batch"] >= BATCH_CODEGEN_FLOOR
    # the shard scaling floor only binds where shards get real cores
    if (os.cpu_count() or 1) >= BATCH_SHARD_WORKERS:
        assert data["sweeps"]["batch-codegen"]["ratios"][
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
                        help="small sweeps for CI (n=96, two latencies "
                             "per regime)")
    parser.add_argument("--out", default=str(BENCH_JSON),
                        help="output JSON path")
    args = parser.parse_args(argv)
    if args.smoke:
        smoke_latencies = tuple(
            sorted({max(1, round(2 ** (i * 9 / 11))) for i in range(12)})
        )
        # the batch-codegen regime keeps the full 1..64 depth axis in
        # smoke: its win comes from saturation collapse, which a
        # shallow-depth grid (everything saturates) would erase — and
        # unlike the per-point codegen comparator it costs no compile
        # per grid point, so the wider grid stays cheap
        bc_latencies = tuple(
            sorted({max(1, round(2 ** (i * 9 / 23))) for i in range(24)})
        )
        data = run_scheduler_comparison(
            scheduler_latencies=(8, 32), codegen_latencies=(64, 256),
            n=96, repeats=3,
            batch_latencies=smoke_latencies,
            batch_depths=tuple(range(1, 17)),
            batch_subsample=13,
            batch_codegen_latencies=bc_latencies,
            batch_codegen_depths=tuple(range(1, 65)),
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
            total_cycles += cluster.run(fast_forward=fast).cycles
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
