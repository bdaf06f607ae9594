"""Declarative simulation jobs: the unit of work of the sweep harness.

Every experiment in :mod:`repro.harness.experiments` is expressed as a
list of :class:`Job` descriptions — *(kernel, machine, configuration)*
triples — that :func:`run_job` turns into a flat, JSON-serializable
``dict`` of measurements.  Keeping the job picklable and the result plain
lets :mod:`repro.harness.parallel` fan jobs out over a process pool and
cache results on disk, while the experiments stay pure table assembly.

Compilation is memoized per process: a sweep that runs the same kernel at
ten latencies lowers it once (``lower_sma``/``lower_scalar``), instantiates
its input arrays once, and computes its reference outputs once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..config import (
    MemoryConfig,
    QueueConfig,
    ScalarConfig,
    SMAConfig,
    canonicalize,
)

#: machine kinds a job can target
MACHINES = (
    "sma",
    "sma-nostream",
    "scalar",
    "vector",
    "cluster",
    "sma-occupancy",
)


def _refuse_non_int(name: str, value, minimum: int | None) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an ``int`` (not
    a ``bool``) of at least ``minimum``."""
    if type(value) is not int or (minimum is not None and value < minimum):
        want = "an int" if minimum is None else f"an int >= {minimum}"
        raise ValueError(f"job {name} must be {want}, not {value!r}")


@dataclass(frozen=True)
class Job:
    """One simulation to run.

    Frozen and built from frozen config dataclasses, so a job is hashable,
    picklable (for the process pool) and has a stable ``repr`` (for the
    on-disk result cache key).  Numeric fields are stored as builtins on
    construction (configs canonicalize themselves the same way), so the
    repr does not depend on whether a sweep passed ``256`` or
    ``np.int64(256)``; a field of the wrong type or range is a
    ``ValueError`` naming it.  The kernel name is not checked here: the
    service refuses an unknown one at its door, and a job naming one
    fails when it runs.
    """

    machine: str
    kernel: str
    n: int | None = None
    seed: int = 12345
    sma_config: SMAConfig | None = None
    scalar_config: ScalarConfig | None = None
    memory_config: MemoryConfig | None = None  # vector jobs
    #: verify outputs word-exact against the reference interpreter
    check: bool = False
    #: number of identical nodes (cluster jobs)
    nodes: int = 1
    #: time-series resolution (occupancy jobs)
    buckets: int = 32
    #: LOD-heavy lowering shape (SMA jobs): None, "addr" or "branch"
    #: (see :func:`repro.kernels.lower_sma.lower_sma`)
    lod_variant: str | None = None

    def __post_init__(self):
        canonicalize(self)
        if self.machine not in MACHINES:
            raise ValueError(
                f"unknown job machine {self.machine!r}; known: {MACHINES}"
            )
        if self.n is not None:
            _refuse_non_int("n", self.n, 1)
        _refuse_non_int("seed", self.seed, None)
        if type(self.check) is not bool:
            raise ValueError(f"job check must be a bool, not {self.check!r}")
        _refuse_non_int("nodes", self.nodes, 1)
        _refuse_non_int("buckets", self.buckets, 1)
        if self.lod_variant is not None and self.lod_variant not in (
            "addr", "branch"
        ):
            raise ValueError(
                f"unknown lod_variant {self.lod_variant!r}; "
                f"expected 'addr' or 'branch'"
            )


#: machine kinds the batch engine can execute
BATCH_MACHINES = ("sma", "sma-nostream")


@dataclass(frozen=True)
class BatchJob:
    """A dense (latency × queue-depth × bank-count) sweep of one kernel,
    destined for the SoA batch engine.

    :meth:`expand` turns the grid into ordinary :class:`Job` rows using
    the experiments' configuration convention (``bank_busy =
    max(1, latency // 2)``; the four main queue depths swept together,
    EP→AP queues at their defaults), so the expansion can run through any
    backend — every grid point is a first-class cacheable job.
    """

    kernel: str
    n: int | None = None
    seed: int = 12345
    machine: str = "sma"
    latencies: tuple[int, ...] = (8,)
    queue_depths: tuple[int, ...] = (8,)
    bank_counts: tuple[int, ...] = (8,)
    check: bool = False

    def __post_init__(self):
        for name in ("latencies", "queue_depths", "bank_counts"):
            # lists and numpy arrays become tuples, so the job hashes
            object.__setattr__(self, name, tuple(getattr(self, name)))
        canonicalize(self)
        if self.machine not in BATCH_MACHINES:
            raise ValueError(
                f"batch jobs target {BATCH_MACHINES}, "
                f"not {self.machine!r}"
            )
        for name in ("latencies", "queue_depths", "bank_counts"):
            if not getattr(self, name):
                raise ValueError(f"batch job {name} must be non-empty")

    def expand(self) -> list[Job]:
        """One :class:`Job` per grid point, latency-major order."""
        out = []
        for latency in self.latencies:
            for depth in self.queue_depths:
                for banks in self.bank_counts:
                    cfg = SMAConfig(
                        memory=MemoryConfig(
                            latency=latency,
                            bank_busy=max(1, latency // 2),
                            num_banks=banks,
                        ),
                        queues=QueueConfig(
                            load_queue_depth=depth,
                            store_data_depth=depth,
                            store_addr_depth=depth,
                            index_queue_depth=depth,
                        ),
                    )
                    out.append(
                        Job(
                            self.machine, self.kernel, self.n, self.seed,
                            sma_config=cfg, check=self.check,
                        )
                    )
        return out


# -- per-process memoization -------------------------------------------------
#
# Worker processes inherit empty caches; within one worker (or the serial
# path) every (kernel, n, seed) is instantiated, lowered and reference-run
# at most once no matter how many sweep points reuse it.  The simulator is
# imported here, at first use, so planning, keying and cache probes never
# load it.


@lru_cache(maxsize=None)
def _instantiated(name: str, n: int | None, seed: int):
    from ..kernels import get_kernel

    return get_kernel(name).instantiate(n, seed)


@lru_cache(maxsize=None)
def _lowered_sma(name: str, n: int | None, seed: int, use_streams: bool,
                 lod_variant: str | None = None):
    from ..kernels import lower_sma

    kernel, _ = _instantiated(name, n, seed)
    return lower_sma(kernel, use_streams=use_streams,
                     lod_variant=lod_variant)


@lru_cache(maxsize=None)
def _lowered_scalar(name: str, n: int | None, seed: int):
    from ..kernels import lower_scalar

    kernel, _ = _instantiated(name, n, seed)
    return lower_scalar(kernel)


@lru_cache(maxsize=None)
def _reference(name: str, n: int | None, seed: int):
    from ..kernels import run_reference

    kernel, inputs = _instantiated(name, n, seed)
    return run_reference(kernel, inputs)


@lru_cache(maxsize=None)
def _standalone_cycles(name: str, n: int | None, seed: int,
                       config: SMAConfig) -> int:
    """Cycles of one cluster node's kernel run alone on the cluster's
    ``config``: R-F8's cells share their nodes, so each distinct node
    is simulated standalone once."""
    from .runner import run_on_sma

    kernel, inputs = _instantiated(name, n, seed)
    lowered = _lowered_sma(name, n, seed, True)
    return run_on_sma(kernel, inputs, config, lowered=lowered).cycles


def _check_outputs(job: Job, machine: str, outputs,
                   seed: int | None = None) -> None:
    """``AssertionError`` unless ``outputs`` equal the reference run of
    ``job``'s kernel (on input ``seed``, default the job's)."""
    import numpy as np

    golden = _reference(job.kernel, job.n,
                        job.seed if seed is None else seed)
    for name, want in golden.items():
        got = outputs[name]
        if not np.array_equal(got, want):
            bad = int(np.flatnonzero(got != want)[0])
            raise AssertionError(
                f"{job.kernel}: {machine} diverges from the "
                f"reference in array {name!r} at index {bad}: "
                f"{got[bad]!r} != {want[bad]!r}"
            )


# -- job execution -----------------------------------------------------------


def _capture(job: Job, run) -> dict:
    """Route the run's RunReport into the ambient capture (if armed) and
    return the extra result keys the capture adds to the job dict."""
    if run.report is None:
        return {}
    from ..metrics.capture import active_capture

    collector = active_capture()
    if collector is None:  # pragma: no cover - guarded by caller
        return {}
    run.report.n = job.n
    collector.add(run.report)
    return {"stall_breakdown": dict(run.report.stall_breakdown)}


def _metrics_armed() -> bool:
    from ..metrics.capture import active_capture

    return active_capture() is not None


def _run_sma(job: Job, use_streams: bool) -> dict:
    from .runner import run_on_sma

    kernel, inputs = _instantiated(job.kernel, job.n, job.seed)
    lowered = _lowered_sma(job.kernel, job.n, job.seed, use_streams,
                           job.lod_variant)
    run = run_on_sma(
        kernel, inputs, job.sma_config, use_streams=use_streams,
        lowered=lowered, metrics=_metrics_armed(),
    )
    if job.check:
        _check_outputs(job, run.machine, run.outputs)
    res = run.result
    info = lowered.info
    spec = {"speculation": res.speculation} if res.speculation else {}
    return {
        **spec,
        **_capture(job, run),
        "cycles": res.cycles,
        "ap_instructions": res.ap.instructions,
        "ep_instructions": res.ep.instructions,
        "ap_stalls": dict(res.ap.stall_cycles),
        "ep_stalls": dict(res.ep.stall_cycles),
        "ep_total_stalls": res.ep.total_stalls(),
        "mean_outstanding_loads": res.mean_outstanding_loads,
        "max_outstanding_loads": res.max_outstanding_loads,
        "lod_events": res.lod_events,
        "lod_stall_cycles": res.lod_stall_cycles,
        "memory_reads": res.memory_reads,
        "memory_writes": res.memory_writes,
        "load_streams": info.load_streams,
        "store_streams": info.store_streams,
        "gather_streams": info.gather_streams,
        "scatter_streams": info.scatter_streams,
        "carried_refs": info.carried_refs,
        "computed_refs": info.computed_refs,
    }


def _run_scalar(job: Job) -> dict:
    from .runner import run_on_scalar

    kernel, inputs = _instantiated(job.kernel, job.n, job.seed)
    cfg = job.scalar_config or ScalarConfig()
    run = run_on_scalar(
        kernel, inputs, cfg,
        lowered=_lowered_scalar(job.kernel, job.n, job.seed),
        metrics=_metrics_armed(),
    )
    if job.check:
        _check_outputs(job, run.machine, run.outputs)
    res = run.result
    out = {
        **_capture(job, run),
        "cycles": res.cycles,
        "instructions": res.instructions,
        "loads": res.loads,
        "stores": res.stores,
        "memory_stall_cycles": res.memory_stall_cycles,
        "bank_conflict_waits": res.bank_conflict_waits,
    }
    if res.cache is not None:
        out["cache_hit_rate"] = res.cache.hit_rate
        if hasattr(res.cache, "coverage"):
            out["cache_coverage"] = res.cache.coverage
        if hasattr(res.cache, "prefetch_accuracy"):
            out["cache_accuracy"] = res.cache.prefetch_accuracy
    return out


def _run_vector(job: Job) -> dict:
    from ..kernels.lower_vector import VectorizationError
    from .runner import run_on_vector

    kernel, inputs = _instantiated(job.kernel, job.n, job.seed)
    try:
        run = run_on_vector(kernel, inputs, job.memory_config)
    except VectorizationError as exc:
        return {"vectorized": False, "reason": str(exc)}
    if job.check:
        _check_outputs(job, "vector", run.outputs)
    return {"vectorized": True, "cycles": run.cycles}


def _node_seeds(job: Job) -> list[int]:
    """Per-node input seeds of a cluster job: node j gets seed
    ``job.seed + j``, so jobs differing only in seed measure different
    inputs (they used to be hard-coded to 100 + j, which silently
    returned identical results under distinct cache keys)."""
    return [job.seed + j for j in range(job.nodes)]


def cluster_workloads(job: Job) -> list:
    """The per-node (kernel, inputs) list a cluster job simulates (see
    :func:`_node_seeds`), shared with this process's other jobs."""
    return [_instantiated(job.kernel, job.n, seed)
            for seed in _node_seeds(job)]


def _run_cluster(job: Job) -> dict:
    from .runner import run_cluster

    seeds = _node_seeds(job)
    metrics = _metrics_armed()
    result = run_cluster(
        cluster_workloads(job), job.sma_config, check=False,
        metrics=metrics,
        standalone=lambda i, cfg: _standalone_cycles(
            job.kernel, job.n, seeds[i], cfg),
    )
    if job.check:
        for seed, outputs in zip(seeds, result.outputs):
            _check_outputs(job, "cluster node", outputs, seed)
    slowdowns = result.interference_slowdowns
    out = {
        "cluster_cycles": result.cluster_cycles,
        "node_cycles": list(result.node_cycles),
        "standalone_cycles": list(result.standalone_cycles),
        "bank_conflicts": result.bank_conflicts,
        "port_rejects": result.port_rejects,
        "memory_utilization": result.memory_utilization,
        "mean_slowdown": sum(slowdowns) / len(slowdowns),
    }
    if metrics and result.reports:
        from ..metrics.capture import active_capture

        collector = active_capture()
        for report in result.reports:
            report.n = job.n
            collector.add(report)
        out["stall_breakdowns"] = [
            dict(report.stall_breakdown) for report in result.reports
        ]
        out["contention"] = dict(result.contention)
    return out


def _run_occupancy(job: Job) -> dict:
    from dataclasses import replace

    from ..core import SMAMachine
    from ..trace import QueueOccupancySampler
    from .runner import _fit_memory, _load_inputs

    kernel, inputs = _instantiated(job.kernel, job.n, job.seed)
    # the lowering must honor job.lod_variant: the cache key includes the
    # field via repr(job), so simulating the plain lowering here would
    # serve a wrong result under a correct-looking key
    lowered = _lowered_sma(job.kernel, job.n, job.seed, True,
                           job.lod_variant)
    cfg = job.sma_config or SMAConfig()
    cfg = replace(cfg, memory=_fit_memory(cfg.memory, lowered.layout))
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    sampler = QueueOccupancySampler(stride=1)
    machine.run(observer=sampler)
    return {
        "cycles": machine.cycle,
        "load": [list(p) for p in sampler.load.bucketed(job.buckets)],
        "store": [list(p) for p in sampler.store.bucketed(job.buckets)],
    }


def run_job(job: Job) -> dict:
    """Execute one job; returns a flat JSON-serializable result dict."""
    from .faults import before_job

    before_job(job)
    if job.machine == "sma":
        return _run_sma(job, use_streams=True)
    if job.machine == "sma-nostream":
        return _run_sma(job, use_streams=False)
    if job.machine == "scalar":
        return _run_scalar(job)
    if job.machine == "vector":
        return _run_vector(job)
    if job.machine == "cluster":
        return _run_cluster(job)
    if job.machine == "sma-occupancy":
        return _run_occupancy(job)
    raise ValueError(f"unknown job machine {job.machine!r}")
