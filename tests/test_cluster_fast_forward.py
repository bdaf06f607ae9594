"""Cluster fast-forward equivalence and the R-F8 accounting fixes.

The central property mirrors ``tests/test_fast_forward.py`` one level up:
an :class:`repro.core.SMACluster` run on the event-horizon loop must be
indistinguishable from naive cycle-by-cycle ticking — cluster cycles,
per-node finish cycles, every per-node statistic (stall counters, queue
histograms, LOD accounting), per-node metrics bucket partitions, shared
memory contention counters, and the final memory image.

Alongside it: regression tests for the finish-cycle recording contract
(``finish_cycles[i] == nodes[i].cycles``, exact under fast-forward), the
``Job.seed`` plumbing in the cluster job runner, and the timeline
recorder's per-cycle stall attribution.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import MemoryConfig, QueueConfig, SMAConfig
from repro.core import SMACluster
from repro.harness.jobs import Job, run_job
from repro.harness.runner import run_cluster
from repro.kernels import get_kernel, lower_sma

from tests.test_fast_forward import _loop

#: suite kernels with structurally diverse access patterns
MIX_KERNELS = ("daxpy", "hydro", "tridiag", "computed_gather", "pic_gather")


def _build_cluster(specs, latency, depth, banks, ports=1,
                   lod_variants=None, speculation=None, issue=1):
    """Lower each (kernel, inputs) at a disjoint base and stage data;
    ``lod_variants`` gives one lowering variant per node, ``issue`` is
    each node's ``stream_issue_per_cycle``."""
    lowered = []
    base = 16
    for j, (kernel, _inputs) in enumerate(specs):
        low = lower_sma(
            kernel, base=base,
            lod_variant=lod_variants[j] if lod_variants else None,
        )
        lowered.append(low)
        base = low.layout.end + 16
    queues = QueueConfig(
        load_queue_depth=depth,
        store_data_depth=depth,
        store_addr_depth=depth,
        index_queue_depth=depth,
    )
    mem = MemoryConfig(
        latency=latency,
        bank_busy=max(1, latency // 2),
        num_banks=banks,
        accepts_per_cycle=ports,
        size=max(MemoryConfig().size, base + 16),
    )
    cluster = SMACluster(
        [(low.access_program, low.execute_program) for low in lowered],
        SMAConfig(memory=mem, queues=queues, speculation=speculation,
                  stream_issue_per_cycle=issue),
    )
    for (kernel, inputs), low in zip(specs, lowered):
        for decl in kernel.arrays:
            cluster.load_array(low.layout.base(decl.name), inputs[decl.name])
    return cluster


def _node_observables(machine, result):
    return {
        "cycle": machine.cycle,
        "result": result.to_dict(),
        "occupancy_sum": machine._occupancy_sum,
        "occupancy_max": machine._occupancy_max,
        "queues": {
            name: (
                stats.pushes, stats.pops, stats.empty_stalls,
                stats.full_stalls, stats.samples, stats.occupancy_sum,
                stats.occupancy_max, dict(stats.histogram),
            )
            for name, stats in result.queue_stats.items()
        },
    }


def _observables(cluster, result, metrics):
    """Everything a cluster run can be compared on; ``metrics`` is the
    per-node list ``attach_metrics`` returned, or ``None``."""
    return {
        "cycles": result.cycles,
        "finish_cycles": list(result.finish_cycles),
        "nodes": [
            _node_observables(machine, node)
            for machine, node in zip(cluster.nodes, result.nodes)
        ],
        "buckets": [m.stall_breakdown() for m in metrics or ()],
        "memory": {
            "reads": cluster.banked.stats.reads,
            "writes": cluster.banked.stats.writes,
            "bank_conflicts": result.bank_conflicts,
            "port_rejects": result.port_rejects,
            "busy_bank_cycles": cluster.banked.stats.busy_bank_cycles,
            "completions": cluster.banked.stats.completions,
            "per_bank": list(cluster.banked.stats.per_bank_accesses),
            "utilization": result.memory_utilization,
        },
        "image": cluster.memory.dump_array(
            0, cluster.config.memory.size
        ).tolist(),
    }


def _run_both_modes(specs, latency, depth, banks, ports=1, metrics=True):
    observed = []
    for fast in (False, True):
        cluster = _build_cluster(specs, latency, depth, banks, ports)
        node_metrics = cluster.attach_metrics() if metrics else None
        result = cluster.run(scheduler=_loop(fast))
        observed.append(_observables(cluster, result, node_metrics))
    naive, fast = observed
    assert naive == fast
    return naive


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(MIX_KERNELS), min_size=1, max_size=4),
    st.sampled_from((8, 16, 32, 64)),     # latency
    st.sampled_from((2, 4, 16)),          # queue depth
    st.sampled_from((2, 8, 16)),          # banks
    st.sampled_from((1, 2)),              # port width
    st.integers(0, 2**31),                # input seed
    st.booleans(),                        # metrics attached
)
# one node finishes early: its queue samples must stop at its own
# finish cycle, not run on to the cluster's last cycle
@example(names=["daxpy", "daxpy"], latency=8, depth=2, banks=2, ports=1,
         seed=0, metrics=False)
def test_cluster_fast_forward_identical_on_random_mixes(
    names, latency, depth, banks, ports, seed, metrics
):
    specs = [
        get_kernel(name).instantiate(24, seed + j)
        for j, name in enumerate(names)
    ]
    observed = _run_both_modes(
        specs, latency, depth, banks, ports, metrics=metrics
    )
    # the metrics buckets partition each node's own cycle count
    for node, buckets in zip(observed["nodes"], observed["buckets"]):
        assert sum(buckets.values()) == node["cycle"]


@pytest.mark.parametrize("nodes", (1, 2, 4))
@pytest.mark.parametrize("latency", (16, 64))
def test_cluster_fast_forward_identical_on_daxpy_grid(nodes, latency):
    spec = get_kernel("daxpy")
    specs = [spec.instantiate(48, 7 + j) for j in range(nodes)]
    _run_both_modes(specs, latency, depth=8, banks=16)


@pytest.mark.parametrize("ports", (1, 4))
def test_cluster_fast_forward_identical_on_rf8_shape(ports):
    """R-F8's shape and path: eight daxpy nodes at latency 8 on 16
    banks with default queue depths, no metrics attached."""
    spec = get_kernel("daxpy")
    specs = [spec.instantiate(48, j) for j in range(8)]
    _run_both_modes(specs, latency=8, depth=8, banks=16, ports=ports,
                    metrics=False)


def test_default_cluster_run_steps_fast_and_jumps(monkeypatch):
    """The default loop must never fall back to reference stepping: no
    per-cycle queue sampling, no ``step_cycle`` or reference component
    step, and at latency 256 most node-cycles are replayed in closed
    form rather than stepped."""
    from repro.core import SMAMachine
    from repro.core.access_processor import AccessProcessor
    from repro.core.descriptors import StreamEngine
    from repro.core.execute_processor import ExecuteProcessor
    from repro.core.store_unit import StoreUnit
    from repro.queues import QueueFile

    def forbidden(*args, **kwargs):
        raise AssertionError("reference stepping on the default path")

    for cls, name in (
        (QueueFile, "sample"), (SMAMachine, "step_cycle"),
        (AccessProcessor, "step"), (ExecuteProcessor, "step"),
        (StreamEngine, "tick"), (StoreUnit, "tick"),
    ):
        monkeypatch.setattr(cls, name, forbidden)
    replayed = 0
    replay = SMAMachine._replay_fast

    def counting_replay(machine, snapshot, count):
        nonlocal replayed
        replayed += count
        replay(machine, snapshot, count)

    monkeypatch.setattr(SMAMachine, "_replay_fast", counting_replay)
    spec = get_kernel("daxpy")
    specs = [spec.instantiate(32, j) for j in range(4)]
    cluster = _build_cluster(specs, latency=256, depth=8, banks=16)
    result = cluster.run()
    # every node-cycle was either stepped or replayed
    node_cycles = sum(node.cycle for node in cluster.nodes)
    node_steps = node_cycles - replayed
    assert node_steps < result.cycles * len(cluster.nodes)
    assert 2 * node_steps < node_cycles


# ---------------------------------------------------------------------------
# finish-cycle recording (satellite: off-by-one fix)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fast", (False, True))
def test_finish_cycles_equal_node_cycle_counts(fast):
    """A node's recorded finish cycle is its own elapsed cycle count —
    recorded the moment it transitions to done, not on a later visit
    (which under fast-forward could be a whole clock jump late)."""
    specs = [
        get_kernel("daxpy").instantiate(16, 1),      # finishes early
        get_kernel("hydro").instantiate(96, 2),      # keeps running
    ]
    cluster = _build_cluster(specs, latency=64, depth=4, banks=8)
    result = cluster.run(scheduler=_loop(fast))
    assert result.finish_cycles == [n.cycles for n in result.nodes]
    assert result.finish_cycles[0] < result.finish_cycles[1]


def test_finish_cycles_match_between_modes():
    specs = [
        get_kernel("daxpy").instantiate(16, 1),
        get_kernel("tridiag").instantiate(64, 2),
        get_kernel("daxpy").instantiate(96, 3),
    ]
    finishes = []
    for fast in (False, True):
        cluster = _build_cluster(specs, latency=128, depth=4, banks=8)
        finishes.append(cluster.run(scheduler=_loop(fast)).finish_cycles)
    assert finishes[0] == finishes[1]


# ---------------------------------------------------------------------------
# Job.seed plumbing (satellite: cluster jobs ignored the seed)
# ---------------------------------------------------------------------------


class TestClusterJobSeed:
    CFG = SMAConfig(
        memory=MemoryConfig(latency=8, bank_busy=4, num_banks=8)
    )

    def test_node_seeds_derive_from_job_seed(self):
        """run_job must measure the same workloads as a direct
        run_cluster with seeds job.seed + j."""
        job = run_job(Job(
            "cluster", "computed_gather", 48, seed=7,
            sma_config=self.CFG, nodes=2,
        ))
        spec = get_kernel("computed_gather")
        direct = run_cluster(
            [spec.instantiate(48, 7 + j) for j in range(2)], self.CFG
        )
        assert job["cluster_cycles"] == direct.cluster_cycles
        assert job["node_cycles"] == direct.node_cycles

    def test_jobs_differing_only_in_seed_differ(self):
        """computed_gather's access pattern is seed-dependent, so two
        cluster jobs differing only in seed must not return identical
        measurements (they used to: node seeds were hard-coded)."""
        results = [
            run_job(Job(
                "cluster", "computed_gather", 48, seed=seed,
                sma_config=self.CFG, nodes=2,
            ))
            for seed in (7, 100)
        ]
        assert results[0] != results[1]


# ---------------------------------------------------------------------------
# run_cluster metrics mode: per-node RunReports + contention section
# ---------------------------------------------------------------------------


def test_run_cluster_emits_per_node_reports_and_contention():
    from repro.metrics import validate_report

    specs = [
        get_kernel("daxpy").instantiate(48, 5),
        get_kernel("hydro").instantiate(48, 6),
    ]
    result = run_cluster(
        specs,
        SMAConfig(memory=MemoryConfig(num_banks=16)),
        metrics=True,
    )
    assert [r.machine for r in result.reports] == ["sma-node0", "sma-node1"]
    assert [r.kernel for r in result.reports] == ["daxpy", "hydro"]
    for report, cycles in zip(result.reports, result.node_cycles):
        assert not validate_report(report.to_dict())
        assert report.cycles == cycles
        assert sum(report.stall_breakdown.values()) == cycles
    for key in ("bank_conflicts", "port_rejects", "memory_utilization",
                "completions"):
        assert key in result.contention
    assert result.contention["bank_conflicts"] == result.bank_conflicts


def test_run_cluster_without_metrics_has_no_reports():
    specs = [get_kernel("daxpy").instantiate(32, 5)]
    result = run_cluster(specs)
    assert result.reports == []
    assert result.contention == {}


# ---------------------------------------------------------------------------
# timeline per-cycle stall attribution (satellite: dominant-cause bug)
# ---------------------------------------------------------------------------


class _StubStats:
    def __init__(self):
        self.instructions = 0
        self.stall_cycles: dict[str, int] = {}


class _StubProcessor:
    """Just enough surface for TimelineRecorder; deliberately has no
    ``_stalled_on`` attribute, the situation that used to route the
    recorder into its dominant-cause fallback."""

    def __init__(self):
        self.pc = 0
        self.halted = False
        self.program = []
        self.stats = _StubStats()


class _StubMachine:
    def __init__(self):
        self.ap = _StubProcessor()
        self.ep = _StubProcessor()

        class _Counter:
            def __init__(self):
                self.stats = _StubStats()

        self.engine = _Counter()
        self.engine.stats.requests_issued = 0
        self.store_unit = _Counter()
        self.store_unit.stats.stores_issued = 0


class TestTimelineStallAttribution:
    def test_cycle_shows_its_own_cause_not_the_dominant_one(self):
        """A cycle stalled on lq_empty must render ~lq_empty even when
        q_full dominates the cumulative counters."""
        from repro.trace import TimelineRecorder

        machine = _StubMachine()
        recorder = TimelineRecorder()
        for cycle in range(5):
            machine.ep.stats.stall_cycles["q_full"] = cycle + 1
            recorder(machine, cycle)
        machine.ep.stats.stall_cycles["lq_empty"] = 1
        recorder(machine, 5)
        events = [r.ep_event for r in recorder.records]
        assert events[:5] == ["~q_full"] * 5
        assert events[5] == "~lq_empty"

    def test_real_run_events_match_counter_deltas(self):
        """On a real machine every rendered stall cause must be the one
        whose counter incremented that exact cycle."""
        from repro.config import SMAConfig
        from repro.core import SMAMachine
        from repro.isa import assemble
        from repro.trace import TimelineRecorder

        ap = assemble(
            "streamld lq0, #50, #1, #8\nstreamst sdq0, #80, #1, #8\nhalt"
        )
        ep = assemble(
            "mov x1, #8\nt: add sdq0, lq0, #1.0\ndecbnz x1, t\nhalt"
        )
        machine = SMAMachine(ap, ep, SMAConfig())
        machine.load_array(50, [1.0] * 8)
        recorder = TimelineRecorder()
        expected: list[str | None] = []
        prev: dict[str, int] = {}

        def observer(m, cycle):
            nonlocal prev
            stalls = dict(m.ep.stats.stall_cycles)
            cause = None
            for name, value in stalls.items():
                if value > prev.get(name, 0):
                    cause = name
            expected.append(cause)
            prev = stalls
            recorder(m, cycle)

        machine.run(observer=observer)
        assert any(expected)  # the run must actually contain EP stalls
        for record, cause in zip(recorder.records, expected):
            if cause is not None:
                assert record.ep_event == f"~{cause}"
            else:
                assert not record.ep_event.startswith("~")
