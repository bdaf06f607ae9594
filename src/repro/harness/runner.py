"""Workload runner: compile a kernel, load its data, run a machine,
collect results.

This is the layer every experiment and example goes through.  It
guarantees the three executions of a kernel (reference, scalar baseline,
SMA) see identical memory layouts and identical input data, so results can
be compared word-for-word while cycle counts are compared fairly.

The machines, the compilers and numpy are imported by the functions that
run them, so importing this module loads none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..config import MemoryConfig, ScalarConfig, SMAConfig

if TYPE_CHECKING:
    import numpy as np

    from ..kernels import Kernel, KernelSpec, LoweredScalar, LoweredSMA
    from ..kernels.layout import Layout


@dataclass(frozen=True)
class KernelRun:
    """Outcome of running one kernel on one machine."""

    kernel: Kernel
    machine: str  # "sma" | "sma-nostream" | "scalar" | "scalar-cache"
    result: Any  # SMAResult | ScalarResult
    outputs: dict[str, np.ndarray]
    layout: Layout
    #: RunReport when the run was made with metrics=True, else None
    report: Any = None

    @property
    def cycles(self) -> int:
        return self.result.cycles


def _fit_memory(config_memory: MemoryConfig, layout: Layout) -> MemoryConfig:
    """Grow the memory size if the kernel footprint needs it."""
    needed = layout.end + 16
    if config_memory.size >= needed:
        return config_memory
    return replace(config_memory, size=needed)


def _load_inputs(machine, layout: Layout, kernel: Kernel,
                 inputs: Mapping[str, np.ndarray]) -> None:
    for decl in kernel.arrays:
        machine.load_array(layout.base(decl.name), inputs[decl.name])


def _dump_outputs(machine, layout: Layout, kernel: Kernel) -> dict:
    return {
        decl.name: machine.dump_array(layout.base(decl.name), decl.size)
        for decl in kernel.arrays
    }


def run_on_sma(
    kernel: Kernel,
    inputs: Mapping[str, np.ndarray],
    config: SMAConfig | None = None,
    use_streams: bool = True,
    lowered: LoweredSMA | None = None,
    max_cycles: int = 10_000_000,
    metrics: bool = False,
) -> KernelRun:
    """Compile (or reuse ``lowered``) and run ``kernel`` on the SMA.

    ``metrics=True`` attaches the stall-attribution layer (fast-forward
    stays enabled) and fills :attr:`KernelRun.report` with a
    :class:`repro.metrics.RunReport`.
    """
    from ..core import SMAMachine
    from ..kernels import lower_sma

    cfg = config or SMAConfig()
    if lowered is None:
        lowered = lower_sma(kernel, use_streams=use_streams)
    cfg = replace(cfg, memory=_fit_memory(cfg.memory, lowered.layout))
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    machine_metrics = machine.attach_metrics() if metrics else None
    _load_inputs(machine, lowered.layout, kernel, inputs)
    result = machine.run(max_cycles=max_cycles)
    report = None
    if machine_metrics is not None:
        from ..metrics import sma_report

        report = sma_report(machine, machine_metrics, kernel=kernel.name)
    return KernelRun(
        kernel,
        "sma" if lowered.uses_streams else "sma-nostream",
        result,
        _dump_outputs(machine, lowered.layout, kernel),
        lowered.layout,
        report,
    )


def run_on_scalar(
    kernel: Kernel,
    inputs: Mapping[str, np.ndarray],
    config: ScalarConfig | None = None,
    lowered: LoweredScalar | None = None,
    max_cycles: int = 100_000_000,
    metrics: bool = False,
) -> KernelRun:
    """Compile (or reuse ``lowered``) and run ``kernel`` on the baseline.

    ``metrics=True`` registers the machine's counters and fills
    :attr:`KernelRun.report` with a :class:`repro.metrics.RunReport`.
    """
    from ..baseline import ScalarMachine
    from ..kernels import lower_scalar

    cfg = config or ScalarConfig()
    if lowered is None:
        lowered = lower_scalar(kernel)
    cfg = replace(cfg, memory=_fit_memory(cfg.memory, lowered.layout))
    machine = ScalarMachine(lowered.program, cfg)
    registry = machine.attach_metrics() if metrics else None
    _load_inputs(machine, lowered.layout, kernel, inputs)
    result = machine.run(max_cycles=max_cycles)
    machine_name = "scalar-cache" if cfg.cache is not None else "scalar"
    report = None
    if registry is not None:
        from ..metrics import scalar_report

        report = scalar_report(
            result, registry, machine=machine_name, kernel=kernel.name
        )
    return KernelRun(
        kernel,
        machine_name,
        result,
        _dump_outputs(machine, lowered.layout, kernel),
        lowered.layout,
        report,
    )


def run_spec_reference(
    spec: KernelSpec, n: int | None = None, seed: int = 12345
) -> dict[str, np.ndarray]:
    """Golden result of a suite kernel."""
    from ..kernels import run_reference

    kernel, inputs = spec.instantiate(n, seed)
    return run_reference(kernel, inputs)


def run_on_vector(
    kernel: Kernel,
    inputs: Mapping[str, np.ndarray],
    memory: MemoryConfig | None = None,
    max_vl: int = 64,
) -> KernelRun:
    """Compile and run ``kernel`` on the vector-machine baseline.

    Raises :class:`repro.kernels.lower_vector.VectorizationError` when the
    kernel contains a pattern a classic vectorizer must reject — callers
    that want the conventional fallback should catch it and run the
    scalar machine instead (see experiment R-T6).
    """
    from ..baseline.vector_machine import VectorMachine
    from ..kernels.lower_vector import lower_vector

    lowered = lower_vector(kernel, max_vl=max_vl)
    mem = _fit_memory(memory or MemoryConfig(), lowered.layout)
    machine = VectorMachine(lowered.program, mem, max_vl=max_vl)
    _load_inputs(machine, lowered.layout, kernel, inputs)
    result = machine.run()
    return KernelRun(
        kernel,
        "vector",
        result,
        _dump_outputs(machine, lowered.layout, kernel),
        lowered.layout,
    )


@dataclass(frozen=True)
class ClusterKernelRun:
    """Outcome of running several kernels on an SMA cluster."""

    cluster_cycles: int
    node_cycles: list[int]
    standalone_cycles: list[int]
    bank_conflicts: int
    memory_utilization: float
    outputs: list[dict[str, np.ndarray]]
    port_rejects: int = 0
    #: one RunReport per node when run with metrics=True, else empty
    reports: list = field(default_factory=list)
    #: shared-memory contention section (bank conflicts, port rejects,
    #: utilization, completions) when run with metrics=True, else empty
    contention: dict = field(default_factory=dict)

    @property
    def interference_slowdowns(self) -> list[float]:
        """Per-node slowdown relative to running alone on the same
        configuration (1.0 = no interference)."""
        return [
            clustered / alone
            for clustered, alone in zip(
                self.node_cycles, self.standalone_cycles
            )
        ]


def run_cluster(
    jobs: list[tuple[Kernel, Mapping[str, np.ndarray]]],
    config: SMAConfig | None = None,
    check: bool = True,
    max_cycles: int = 10_000_000,
    metrics: bool = False,
    standalone: Callable[[int, SMAConfig], int] | None = None,
) -> ClusterKernelRun:
    """Run several kernels concurrently on an SMA cluster sharing one
    banked memory (each kernel in its own address region), and compare
    each node's finish time with its standalone run.

    With ``check`` (default), every node's outputs are verified word-exact
    against the reference interpreter — contention must never change
    results, only timing.

    ``standalone(i, cfg)``, when given, returns node ``i``'s cycles run
    alone on ``cfg`` (the cluster's config, memory grown to hold every
    node) instead of simulating it here; the job path passes a
    per-process memo.

    ``metrics=True`` attaches the stall-attribution layer to every node
    (cluster fast-forward stays enabled) and fills
    :attr:`ClusterKernelRun.reports` with one
    :class:`repro.metrics.RunReport` per node (machine label
    ``"sma-node<i>"``) plus :attr:`ClusterKernelRun.contention` with the
    shared-memory section.
    """
    cluster, lowered, cfg, node_metrics = _prepare_cluster(
        jobs, config, metrics=metrics
    )
    cluster_result = cluster.run(max_cycles=max_cycles)
    reports: list = []
    contention: dict = {}
    if node_metrics is not None:
        from ..metrics import sma_report

        reports = [
            sma_report(
                node, node_metric,
                kernel=kernel.name,
                machine_name=f"sma-node{i}",
            )
            for i, (node, node_metric, (kernel, _inputs)) in enumerate(
                zip(cluster.nodes, node_metrics, jobs)
            )
        ]
        contention = dict(
            cluster_result.contention(),
            completions=cluster.banked.stats.completions,
        )
    outputs = []
    for (kernel, inputs), low in zip(jobs, lowered):
        outputs.append({
            decl.name: cluster.dump_array(
                low.layout.base(decl.name), decl.size
            )
            for decl in kernel.arrays
        })
    if check:
        import numpy as np

        from ..kernels import run_reference

        for (kernel, inputs), output in zip(jobs, outputs):
            golden = run_reference(kernel, inputs)
            for name, want in golden.items():
                if not np.array_equal(output[name], want):
                    raise AssertionError(
                        f"cluster node diverged from reference in "
                        f"{kernel.name}/{name}"
                    )
    if standalone is None:
        alone = [run_on_sma(kernel, inputs, cfg).cycles
                 for kernel, inputs in jobs]
    else:
        alone = [standalone(i, cfg) for i in range(len(jobs))]
    return ClusterKernelRun(
        cluster_cycles=cluster.cycle,
        node_cycles=[int(c) for c in cluster_result.finish_cycles],
        standalone_cycles=alone,
        bank_conflicts=cluster.banked.stats.bank_conflicts,
        memory_utilization=cluster.banked.stats.utilization(
            max(cluster.cycle, 1), cfg.memory.num_banks
        ),
        outputs=outputs,
        port_rejects=cluster.banked.stats.port_rejects,
        reports=reports,
        contention=contention,
    )


@lru_cache(maxsize=None)
def _lowered_node(kernel: Kernel, base: int) -> LoweredSMA:
    """One cluster node's program, memoized per process: it depends on
    the kernel (whose IR fixes its size) and the node's base address,
    never on the node's inputs, so R-F8's cells share their lowerings."""
    from ..kernels import lower_sma

    return lower_sma(kernel, base=base)


def _prepare_cluster(
    jobs: list[tuple[Kernel, Mapping[str, np.ndarray]]],
    config: SMAConfig | None,
    metrics: bool = False,
):
    """Build the loaded cluster a :func:`run_cluster` call simulates.

    Split out so a script can build the *identical* cluster and drive
    it itself (``scripts/rf8_smoke.py`` compares loops on it).  Returns
    ``(cluster, lowered, cfg, node_metrics)``.
    """
    from ..core.cluster import SMACluster

    cfg = config or SMAConfig()
    lowered = []
    base = 16
    for kernel, _inputs in jobs:
        low = _lowered_node(kernel, base)
        lowered.append(low)
        base = low.layout.end + 16
    cfg = replace(
        cfg, memory=replace(cfg.memory, size=max(cfg.memory.size, base + 16))
    )
    cluster = SMACluster(
        [(low.access_program, low.execute_program) for low in lowered],
        cfg,
    )
    node_metrics = cluster.attach_metrics() if metrics else None
    for (kernel, inputs), low in zip(jobs, lowered):
        for decl in kernel.arrays:
            cluster.load_array(low.layout.base(decl.name), inputs[decl.name])
    return cluster, lowered, cfg, node_metrics


@dataclass(frozen=True)
class ComparisonRun:
    """SMA vs scalar on the same kernel instance."""

    spec_name: str
    n: int
    sma: KernelRun
    scalar: KernelRun

    @property
    def speedup(self) -> float:
        return self.scalar.cycles / self.sma.cycles


def compare_spec(
    spec: KernelSpec,
    n: int | None = None,
    seed: int = 12345,
    sma_config: SMAConfig | None = None,
    scalar_config: ScalarConfig | None = None,
    check: bool = True,
) -> ComparisonRun:
    """Run one suite kernel on both machines; optionally verify both
    against the reference interpreter (exact word equality)."""
    kernel, inputs = spec.instantiate(n, seed)
    sma_run = run_on_sma(kernel, inputs, sma_config)
    scalar_run = run_on_scalar(kernel, inputs, scalar_config)
    if check:
        import numpy as np

        from ..kernels import run_reference

        golden = run_reference(kernel, inputs)
        for name, want in golden.items():
            for run in (sma_run, scalar_run):
                got = run.outputs[name]
                if not np.array_equal(got, want):
                    bad = int(np.flatnonzero(got != want)[0])
                    raise AssertionError(
                        f"{spec.name}: {run.machine} diverges from the "
                        f"reference in array {name!r} at index {bad}: "
                        f"{got[bad]!r} != {want[bad]!r}"
                    )
    actual_n = n if n is not None else spec.default_n
    return ComparisonRun(spec.name, actual_n, sma_run, scalar_run)
