"""Route harness jobs through the SoA batch engine.

The batch engine runs *lane groups*: jobs that share everything
structural (kernel instance, program pair, queue complement, memory
size) and differ only in timing parameters (latency, bank count, bank
busy time, queue depths).  This module decides which jobs qualify
(:func:`batch_eligible`), partitions a job list into maximal lane
groups (:func:`plan_groups`), and runs a group end to end —
staging one shared memory image, stepping all lanes in lockstep, and
assembling per-job result dicts with the exact key set and value types
of the scalar path (:func:`repro.harness.jobs._run_sma`), so cached
batch results and cached scalar results are interchangeable.

A group whose program pair the batch emitter refuses has no batch
engine: :func:`run_group` returns ``None`` and :func:`run_batch` leaves
its jobs out of the mapping, so the harness runs them per point.
"""

from __future__ import annotations

import numpy as np

from ..config import SMAConfig
from ..harness.jobs import (
    Job,
    _check_outputs,
    _instantiated,
    _lowered_sma,
    _metrics_armed,
)
from ..harness.runner import _fit_memory
from .emitter import Unsupported
from .engine import LaneEngine

#: job.machine values the batch engine can execute
_BATCH_MACHINES = {"sma": True, "sma-nostream": False}


def _effective_config(job: Job) -> SMAConfig:
    return job.sma_config or SMAConfig()


def batch_eligible(job: Job) -> bool:
    """Can this job run as a batch lane bit-identically?

    The engine models the default timing envelope — one memory port,
    one stream issue per cycle — and produces plain
    result dicts, so jobs needing the metrics capture layer stay on the
    scalar path.
    """
    return not _metrics_armed() and _eligible_config(job)


def _eligible_config(job: Job) -> bool:
    """:func:`batch_eligible` minus the (job-independent) metrics-layer
    check, which bulk planners hoist out of their per-job loop."""
    if job.machine not in _BATCH_MACHINES:
        return False
    cfg = _effective_config(job)
    if cfg.speculation is not None and cfg.speculation.enabled:
        # the speculative AP (PR 8) runs ahead past LOD stalls; the
        # batch engine has no shadow state, so such a lane would
        # silently report non-speculative timing.  A present-but-
        # disabled config builds no engine on the scalar path either,
        # so it stays eligible.
        return False
    if cfg.memory.accepts_per_cycle != 1:
        return False
    if cfg.stream_issue_per_cycle != 1:
        return False
    return True


def _group_key(job: Job) -> tuple:
    """Jobs with equal keys may share one lane group: same decoded
    program pair, queue-id layout, and staged memory image."""
    cfg = _effective_config(job)
    return (
        job.machine,
        job.kernel,
        job.n,
        job.seed,
        job.lod_variant,
        cfg.max_streams,
        cfg.num_load_queues,
        cfg.num_store_queues,
        cfg.num_index_queues,
        cfg.memory.size,
    )


def plan_groups(jobs: list[Job]) -> list[list[int]]:
    """Partition eligible job indices into lane groups (index lists into
    ``jobs``); callers run ineligible jobs through the scalar path."""
    if _metrics_armed():
        return []
    groups: dict[tuple, list[int]] = {}
    for i, job in enumerate(jobs):
        if _eligible_config(job):
            groups.setdefault(_group_key(job), []).append(i)
    return list(groups.values())


def _residual_key(cfg: SMAConfig) -> tuple:
    """Everything that distinguishes lanes EXCEPT queue capacities.
    Lanes sharing a residual key form one saturation-collapse class:
    they can only differ in how deep their queues are."""
    return (
        repr(cfg.memory),
        cfg.max_streams,
        cfg.stream_issue_per_cycle,
        cfg.num_load_queues,
        cfg.num_store_queues,
        cfg.num_index_queues,
    )


def _collapse_classes(
    configs, qlay
) -> list[tuple[int, list[int], np.ndarray]]:
    """Partition lane positions into saturation classes.

    Returns ``(probe, members, caps)`` triples where ``probe`` is a
    lane whose per-queue capacities componentwise dominate every
    ``member`` (``caps`` holds the members' capacity rows).  A lane
    whose queues never fill behaves bit-identically at any deeper
    depth, so one probe run can serve every member the planner proves
    unsaturated (see :func:`run_group`).  Classes without a dominating
    member, and singletons, yield no triple.
    """
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault(_residual_key(cfg), []).append(i)
    classes = []
    for members in groups.values():
        if len(members) < 2:
            continue
        caps = np.array(
            [qlay.capacities(configs[i]) for i in members], dtype=np.int64
        )
        cmax = caps.max(axis=0)
        dominating = np.flatnonzero((caps == cmax).all(axis=1))
        if dominating.size == 0:
            continue  # no member dominates: simulate everyone
        probe = members[int(dominating[0])]
        classes.append((probe, members, caps))
    return classes


def run_group(jobs: list[Job]) -> list[dict] | None:
    """Run one lane group (all jobs must share a group key); returns one
    result dict per job, aligned with the input order, or ``None`` when
    the batch emitter refuses the group's program pair (the caller runs
    those jobs per point).

    The group is *saturation-collapsed*: for each set of lanes differing
    only in queue depths, the deepest lane runs as a probe with queue
    high-water tracking on (alongside the shallow lanes suspected of
    saturating, in one cohort engine), and every lane whose depths
    strictly exceed the observed peaks provably reproduces the probe
    bit-for-bit and is served from its result without running.
    """
    first = jobs[0]
    use_streams = _BATCH_MACHINES[first.machine]
    kernel, inputs = _instantiated(first.kernel, first.n, first.seed)
    lowered = _lowered_sma(
        first.kernel, first.n, use_streams, first.lod_variant,
    )
    layout = lowered.layout

    configs = []
    for job in jobs:
        cfg = _effective_config(job)
        fit = _fit_memory(cfg.memory, layout)
        if fit is not cfg.memory:
            cfg = cfg.__class__(**{**cfg.__dict__, "memory": fit})
        configs.append(cfg)
    msize = configs[0].memory.size

    # stage the shared memory image exactly the way SMAMachine +
    # _load_inputs build it: zeros, program data segments, input
    # arrays.  Only the prefix the kernel touches is materialized
    # (the logical size stays msize; the engine grows lanes on demand
    # if a program ever addresses past the staged footprint).
    touched = layout.end + 16
    for program in (lowered.access_program, lowered.execute_program):
        for base, values in program.data:
            touched = max(touched, base + len(values))
    image = np.zeros(min(touched, msize), dtype=np.float64)
    for program in (lowered.access_program, lowered.execute_program):
        for base, values in program.data:
            image[base : base + len(values)] = np.asarray(
                values, dtype=np.float64
            )
    for decl in kernel.arrays:
        arr = np.asarray(inputs[decl.name], dtype=np.float64)
        base = layout.base(decl.name)
        image[base : base + arr.shape[0]] = arr

    def build_engine(idx: list[int]) -> LaneEngine:
        return LaneEngine(
            lowered.access_program,
            lowered.execute_program,
            [configs[i] for i in idx],
            image,
            logical_size=msize,
        )

    # job position -> (outcome, lane index within that outcome)
    source: list[tuple | None] = [None] * len(jobs)

    try:
        _run_collapsed(configs, build_engine, source)
        if any(s is None for s in source):
            idx = [i for i, s in enumerate(source) if s is None]
            outcome = build_engine(idx).run()
            for lane, i in enumerate(idx):
                source[i] = (outcome, lane)
    except Unsupported:
        return None

    machine_name = "sma" if lowered.uses_streams else "sma-nostream"
    info = lowered.info
    static = {
        "load_streams": info.load_streams,
        "store_streams": info.store_streams,
        "gather_streams": info.gather_streams,
        "scatter_streams": info.scatter_streams,
        "carried_refs": info.carried_refs,
        "computed_refs": info.computed_refs,
    }
    results = []
    lane_cache: dict[tuple[int, int], dict] = {}
    for i, job in enumerate(jobs):
        outcome, lane = source[i]
        if job.check:
            outputs = {
                decl.name: outcome.dump_array(
                    lane, layout.base(decl.name), decl.size
                )
                for decl in kernel.arrays
            }
            _check_outputs(job, machine_name, outputs)
        ck = (id(outcome), lane)
        base = lane_cache.get(ck)
        if base is None:
            base = outcome.stats.lane_dict(lane)
            lane_cache[ck] = base
        results.append(
            {
                **base,
                "ap_stalls": dict(base["ap_stalls"]),
                "ep_stalls": dict(base["ep_stalls"]),
                **static,
            }
        )
    return results


# Queue-capacity threshold below which a collapse-class member is
# *suspected* of saturating and joins the probe engine up front.  Pure
# performance heuristic: a wrong guess only moves a lane between
# engines (an unsuspected-but-saturated member falls through to the
# caller's residual engine; a suspected-but-unsaturated member is
# simulated redundantly), never changes any result.
_COHORT_CUTOFF = 16


def _run_collapsed(configs, build_engine, source) -> None:
    """Saturation-collapse phase of :func:`run_group`.

    Runs a single *cohort* engine holding, per collapse class, the
    probe lane (queue high-water tracking on) plus every member
    suspected of saturating — those shallow (``<= _COHORT_CUTOFF``) on
    some queue axis the class actually sweeps.  Cohort lanes are served
    from their own simulation; every remaining member whose capacities
    strictly exceed the probe's observed peaks is served from the
    probe's outcome.  Members the proof doesn't cover stay unfilled and
    run in the caller's residual engine; with no collapse classes it
    fills nothing.

    Folding the suspected-saturated members into the probe engine pays
    the fixed per-round stepper overhead once instead of twice: on the
    benchmark grid the residual engine is typically empty.

    Soundness: a full-queue check can only fire on a lane whose count
    has reached its cap, so a probe whose peaks stay strictly below its
    caps ran exactly as if its queues were unbounded; a member whose
    caps strictly exceed those peaks replays the same unbounded run.
    """
    from .decode import QueueLayout

    qlay = QueueLayout.from_config(configs[0])
    classes = _collapse_classes(configs, qlay)
    if not classes:
        return
    cohort: list[int] = []
    cohort_lane: list[dict[int, int]] = []  # per class: member -> lane
    for probe, members, caps in classes:
        varying = caps.max(axis=0) > caps.min(axis=0)
        lanes: dict[int, int] = {}
        for m, row in zip(members, caps):
            if m == probe or (
                varying.any() and row[varying].min() <= _COHORT_CUTOFF
            ):
                lanes[m] = len(cohort)
                cohort.append(m)
        cohort_lane.append(lanes)
    engine = build_engine(cohort)
    engine.track_saturation = True
    outcome = engine.run()
    for (probe, members, caps), lanes in zip(classes, cohort_lane):
        for m, lane in lanes.items():
            if source[m] is None:
                source[m] = (outcome, lane)
        peaks = engine.q_peak[lanes[probe]]
        if not (peaks < engine.q_cap[lanes[probe]]).all():
            continue  # probe may have been capped: simulate members
        unsaturated = (caps > peaks[None, :]).all(axis=1)
        for m, ok in zip(members, unsaturated):
            if ok and source[m] is None:
                source[m] = (outcome, lanes[probe])


def run_batch(
    jobs: list[Job],
    *,
    workers: int = 1,
    on_result=None,
) -> dict[int, dict]:
    """Run every eligible job in ``jobs`` through the batch engine.

    Returns ``{index: result_dict}`` for the jobs that ran; indices not
    in the mapping were ineligible or in a lane group whose program the
    batch emitter refuses, and belong on the per-point path.

    ``workers > 1`` shards lane groups across a fingerprint-seeded
    :class:`~concurrent.futures.ProcessPoolExecutor` (the same worker
    bootstrap the scalar sweep pool uses), splitting each group into
    per-worker sub-batches along saturation-class boundaries so the
    collapse planner keeps one probe per class.  ``on_result(index,
    result)``, when given, is invoked as each job's result lands
    (driver process), letting callers flush incrementally in both
    modes.
    """
    out: dict[int, dict] = {}

    def land(idx: int, res: dict) -> None:
        out[idx] = res
        if on_result is not None:
            on_result(idx, res)

    groups = plan_groups(jobs)
    if workers <= 1:
        for group in groups:
            for idx, res in zip(
                group, run_group([jobs[i] for i in group]) or ()
            ):
                land(idx, res)
        return out

    from concurrent.futures import ProcessPoolExecutor, as_completed

    from ..harness.parallel import _pool_init, code_fingerprint

    shards: list[list[int]] = []
    for group in groups:
        shards.extend(_shard_group(jobs, group, workers))
    if not shards:
        return out
    with ProcessPoolExecutor(
        max_workers=min(workers, len(shards)),
        initializer=_pool_init,
        initargs=(None, code_fingerprint()),
    ) as pool:
        futures = {
            pool.submit(run_group, [jobs[i] for i in shard]): shard
            for shard in shards
        }
        for future in as_completed(futures):
            shard = futures[future]
            for idx, res in zip(shard, future.result() or ()):
                land(idx, res)
    return out


def _shard_group(
    jobs: list[Job], group: list[int], workers: int
) -> list[list[int]]:
    """Split one lane group into at most ``workers`` sub-batches,
    keeping each saturation class whole so sharding never costs the
    collapse planner a probe."""
    if len(group) <= 1 or workers <= 1:
        return [group]
    classes: dict[tuple, list[int]] = {}
    for i in group:
        key = _residual_key(_effective_config(jobs[i]))
        classes.setdefault(key, []).append(i)
    buckets: list[list[int]] = [[] for _ in range(workers)]
    # largest classes first, always into the lightest bucket
    for members in sorted(classes.values(), key=len, reverse=True):
        min(buckets, key=len).extend(members)
    return [b for b in buckets if b]
