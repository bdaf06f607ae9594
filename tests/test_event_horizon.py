"""Event-horizon scheduler equivalence and per-component contracts.

Two layers of guarantees:

**Equivalence** — running the same machine (or cluster) under every
registered scheduler (``"naive"``, ``"joint-idle"``,
``"event-horizon"`` and the program-specialized ``"codegen"`` backend)
must produce bit-identical observables: cycle counts, every stall
counter, LOD accounting, queue occupancy statistics (samples, sums,
maxima, full histograms — exercising the lazy event-driven accounting
against per-cycle sampling), metrics bucket partitions, and the final
memory image.  Hypothesis drives randomized kernels, latencies, queue
depths and bank counts through all the loops; the comparison iterates
:data:`SMAMachine.SCHEDULERS`, so a newly registered scheduler is
covered automatically.

**Contracts** — each component's ``next_event_time(now)`` must name the
earliest cycle its externally visible state can change with every other
component frozen.  The global property test checks the soundness
direction the scheduler actually relies on: immediately after a cycle
that made no progress (the scheduler's "template" position, where stall
flags are fresh), no progress may occur before the reported horizon.
Direct unit tests pin the per-component cases (bank-free clamps, passive
``None`` contracts, the malformed-index live-step escape hatch).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import (
    MemoryConfig,
    QueueConfig,
    SMAConfig,
    SpeculationConfig,
)
from repro.core import SMACluster, SMAMachine
from repro.core.descriptors import StreamDescriptor, StreamEngine, StreamKind
from repro.core.store_unit import StoreUnit
from repro.errors import SimulationError
from repro.isa import assemble
from repro.kernels import get_kernel
from repro.memory import BankedMemory, MainMemory
from repro.queues import QueueFile

from tests.test_cluster_fast_forward import (
    _build_cluster,
    _observables as _cluster_observables,
)
from tests.test_fast_forward import _fuzz_kernels, _machine, _observables

SCHEDULERS = SMAMachine.SCHEDULERS


def _full_observables(machine, result):
    obs = _observables(machine, result)
    obs["image"] = machine.memory.dump_array(
        0, machine.config.memory.size
    ).tolist()
    return obs


def _run_all_schedulers(kernel, inputs, latency, depth, banks,
                        metrics=False):
    observed = {}
    for scheduler in SCHEDULERS:
        machine = _machine(kernel, inputs, latency, depth, banks)
        if metrics:
            machine.attach_metrics()
        result = machine.run(scheduler=scheduler)
        observed[scheduler] = _full_observables(machine, result)
    reference = next(iter(SCHEDULERS))
    for scheduler, obs in observed.items():
        assert obs == observed[reference], (
            f"{scheduler} disagrees with {reference}"
        )
    return observed[reference]


# ---------------------------------------------------------------------------
# machine-level equivalence
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    _fuzz_kernels(),
    st.sampled_from((2, 4, 8, 16, 32, 64)),   # latency
    st.sampled_from((1, 2, 4, 8, 16)),        # queue depth
    st.sampled_from((1, 2, 8)),               # banks
    st.integers(0, 2**31),                    # input seed
)
def test_schedulers_identical_on_random_kernels(
    kernel_n, latency, depth, banks, seed
):
    kernel, _n = kernel_n
    rng = np.random.default_rng(seed)
    inputs = {
        decl.name: rng.uniform(-2, 2, decl.size) for decl in kernel.arrays
    }
    _run_all_schedulers(kernel, inputs, latency, depth, banks)


@pytest.mark.parametrize(
    "name", ("daxpy", "hydro", "tridiag", "computed_gather", "pic_gather")
)
@pytest.mark.parametrize("latency", (8, 32, 128))
@pytest.mark.parametrize("depth", (2, 8))
def test_schedulers_identical_on_suite_kernels(name, latency, depth):
    kernel, inputs = get_kernel(name).instantiate(32)
    _run_all_schedulers(kernel, inputs, latency, depth, banks=8)


def test_schedulers_identical_with_metrics_attached():
    """The event-horizon replay must drive the metrics classifier's
    closed-form replay exactly like the joint-idle path does."""
    kernel, inputs = get_kernel("tridiag").instantiate(48)
    obs = _run_all_schedulers(
        kernel, inputs, latency=64, depth=2, banks=8, metrics=True
    )
    breakdown = obs["result"]["stall_breakdown"]
    assert sum(breakdown.values()) == obs["cycle"]


def test_unknown_scheduler_rejected():
    machine = _machine(
        *get_kernel("daxpy").instantiate(8), latency=4, depth=4, banks=4
    )
    with pytest.raises(ValueError, match="unknown scheduler"):
        machine.run(scheduler="speculative")


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_deadlock_parity_across_schedulers(scheduler):
    """The deadlock diagnostic must fire at the identical cycle with the
    identical stall accounting under every scheduler."""
    from tests.test_fast_forward import _starved_machine

    machine = _starved_machine()
    with pytest.raises(SimulationError, match="deadlock"):
        machine.run(deadlock_window=100, scheduler=scheduler)
    reference = _starved_machine()
    with pytest.raises(SimulationError, match="deadlock"):
        reference.run(deadlock_window=100, scheduler="naive")
    assert machine.cycle == reference.cycle
    assert dict(machine.ep.stats.stall_cycles) == dict(
        reference.ep.stats.stall_cycles
    )


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_cycle_budget_parity_across_schedulers(scheduler):
    from tests.test_fast_forward import _starved_machine

    machine = _starved_machine()
    with pytest.raises(SimulationError, match="budget"):
        machine.run(
            max_cycles=60, deadlock_window=1000, scheduler=scheduler
        )
    assert machine.cycle == 60


# ---------------------------------------------------------------------------
# cluster-level equivalence
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.sampled_from(("daxpy", "hydro", "tridiag", "pic_gather")),
        min_size=1, max_size=3,
    ),
    st.sampled_from((8, 32, 64)),         # latency
    st.sampled_from((2, 8)),              # queue depth
    st.sampled_from((2, 8)),              # banks
    st.sampled_from((1, 2)),              # port width
    st.integers(0, 2**31),                # input seed
    st.booleans(),                        # metrics attached
)
# one node finishes early (see test_cluster_fast_forward)
@example(names=["daxpy", "daxpy"], latency=8, depth=2, banks=2, ports=1,
         seed=0, metrics=False)
def test_cluster_schedulers_identical_on_random_mixes(
    names, latency, depth, banks, ports, seed, metrics
):
    specs = [
        get_kernel(name).instantiate(24, seed + j)
        for j, name in enumerate(names)
    ]
    observed = {}
    for scheduler in SCHEDULERS:
        cluster = _build_cluster(specs, latency, depth, banks, ports)
        node_metrics = cluster.attach_metrics() if metrics else None
        result = cluster.run(scheduler=scheduler)
        observed[scheduler] = _cluster_observables(
            cluster, result, node_metrics
        )
    reference = next(iter(SCHEDULERS))
    for scheduler, obs in observed.items():
        assert obs == observed[reference], (
            f"cluster {scheduler} disagrees with {reference}"
        )


def test_cluster_rejects_unknown_scheduler():
    specs = [get_kernel("daxpy").instantiate(16, 1)]
    cluster = _build_cluster(specs, latency=8, depth=4, banks=4)
    with pytest.raises(ValueError, match="unknown scheduler"):
        cluster.run(scheduler="speculative")


# ---------------------------------------------------------------------------
# the global soundness property
# ---------------------------------------------------------------------------


def _assert_horizons_sound(machine, limit=2_000_000):
    """Naive-tick the machine; after every cycle that made no progress
    (fresh stall flags — the scheduler's template position), require that
    no progress occurs before the reported horizon."""
    jumps_checked = 0
    prev = machine.progress_state()
    progressed = True
    while not machine.done():
        assert machine.cycle < limit, "machine did not terminate"
        if not progressed:
            horizon = machine.next_event_time(machine.cycle)
            if horizon is not None and horizon > machine.cycle:
                jumps_checked += 1
                while machine.cycle < horizon and not machine.done():
                    machine.step_cycle()
                    state = machine.progress_state()
                    assert state == prev, (
                        f"progress at cycle {machine.cycle} before "
                        f"horizon {horizon}: {prev} -> {state}"
                    )
                continue
        machine.step_cycle()
        state = machine.progress_state()
        progressed = state != prev
        prev = state
    return jumps_checked


#: speculative walker configs: mispredictions (rollback penalties and
#: depth refusals) and a perfect predictor (frames only ever commit)
_COIN = SpeculationConfig(accuracy=0.5, max_depth=2, rollback_penalty=12)
_PERFECT = SpeculationConfig(mode="perfect", max_depth=8)


@pytest.mark.parametrize(
    "name,latency,depth,variant,speculation",
    [
        pytest.param("daxpy", 64, 2, None, None, id="daxpy-64-2"),
        pytest.param("hydro", 128, 4, None, None, id="hydro-128-4"),
        # LOD recurrence: AP drags to EP speed
        pytest.param("tridiag", 64, 2, None, None, id="tridiag-64-2"),
        # indexed descriptors
        pytest.param("pic_gather", 64, 4, None, None, id="pic_gather-64-4"),
        pytest.param("pic_gather", 16, 4, "addr", _COIN,
                     id="pic_gather-16-4-addr-coin"),
        pytest.param("tridiag", 16, 2, "branch", _COIN,
                     id="tridiag-16-2-branch-coin"),
        pytest.param("computed_gather", 64, 4, None, _PERFECT,
                     id="computed_gather-64-4-perfect"),
    ],
)
def test_no_progress_before_reported_horizon(
    name, latency, depth, variant, speculation
):
    kernel, inputs = get_kernel(name).instantiate(32)
    machine = _machine(kernel, inputs, latency=latency, depth=depth,
                       banks=2, lod_variant=variant,
                       speculation=speculation)
    jumps = _assert_horizons_sound(machine)
    assert jumps > 0, "workload never exposed a jumpable window"
    if speculation is not None:
        assert machine._spec.stats.predictions > 0


@settings(max_examples=15, deadline=None)
@given(
    _fuzz_kernels(),
    st.sampled_from((16, 64)),
    st.sampled_from((1, 2)),
    st.integers(0, 2**31),
)
def test_no_progress_before_reported_horizon_fuzzed(
    kernel_n, latency, depth, seed
):
    kernel, _n = kernel_n
    rng = np.random.default_rng(seed)
    inputs = {
        decl.name: rng.uniform(-2, 2, decl.size) for decl in kernel.arrays
    }
    machine = _machine(kernel, inputs, latency=latency, depth=depth,
                       banks=1)
    _assert_horizons_sound(machine)


# ---------------------------------------------------------------------------
# per-component contracts
# ---------------------------------------------------------------------------


def _memory(latency=8, bank_busy=4, banks=2, size=256):
    cfg = MemoryConfig(
        latency=latency, bank_busy=bank_busy, num_banks=banks, size=size
    )
    return BankedMemory(MainMemory(size), cfg)


class TestBankedMemoryContract:
    def test_no_pending_completions(self):
        assert _memory().next_completion_time(0) is None

    def test_completion_time_and_clamp(self):
        mem = _memory(latency=8)
        assert mem.try_issue(0, 0, on_complete=lambda v: None)
        assert mem.next_completion_time(0) == 8
        assert mem.next_completion_time(8) == 8
        assert mem.next_completion_time(12) == 12  # overdue clamps to now

    def test_writes_without_callback_are_not_completions(self):
        mem = _memory()
        assert mem.try_issue(0, 0, is_write=True, value=1.0)
        assert mem.next_completion_time(0) is None


class TestStoreUnitContract:
    def _unit(self, **mem_kwargs):
        queues = QueueFile(SMAConfig())
        memory = _memory(**mem_kwargs)
        return StoreUnit(queues, memory), queues, memory

    def test_empty_saq_is_passive(self):
        su, _, _ = self._unit()
        assert su.next_event_time(0) is None

    def test_address_without_data_is_passive(self):
        su, queues, _ = self._unit()
        queues.store_addr.push((4, 0))
        assert su.next_event_time(0) is None

    def test_ready_pair_clamps_to_bank_free_time(self):
        su, queues, memory = self._unit(bank_busy=6, banks=2)
        queues.store_addr.push((4, 0))
        queues.store_data[0].push(1.5)
        assert su.next_event_time(0) == 0
        # occupy the target bank (address 4 -> bank 0)
        assert memory.try_issue(0, 0, is_write=True, value=0.0)
        assert su.next_event_time(1) == 6

    def test_no_stall_notes_from_probe(self):
        """The contract probe must be pure — the reference tick records
        data_wait/empty stalls, the probe must not."""
        su, queues, _ = self._unit()
        queues.store_addr.push((4, 0))
        su.next_event_time(0)
        assert su.stats.data_wait_cycles == 0
        assert queues.store_data[0].stats.empty_stalls == 0


class TestStreamEngineContract:
    def _engine(self, **mem_kwargs):
        memory = _memory(**mem_kwargs)
        return StreamEngine(memory, max_streams=4), memory

    def _queue(self, name="q", capacity=4):
        from repro.queues import OperandQueue

        return OperandQueue(name, capacity)

    def test_idle_engine_is_passive(self):
        engine, _ = self._engine()
        assert engine.next_event_time(0) is None

    def test_missing_index_is_passive(self):
        engine, _ = self._engine()
        engine.start(StreamDescriptor(
            StreamKind.GATHER, base=0, count=4,
            target=self._queue("t"), index_queue=self._queue("i"),
        ))
        assert engine.next_event_time(0) is None

    def test_full_target_is_passive(self):
        engine, _ = self._engine()
        target = self._queue("t", capacity=1)
        target.push(9.0)
        engine.start(StreamDescriptor(
            StreamKind.LOAD, base=0, count=4, target=target,
        ))
        assert engine.next_event_time(0) is None

    def test_empty_data_queue_is_passive(self):
        engine, _ = self._engine()
        engine.start(StreamDescriptor(
            StreamKind.STORE, base=0, count=4,
            data_queue=self._queue("d"),
        ))
        assert engine.next_event_time(0) is None

    def test_busy_bank_clamps_and_idle_bank_is_now(self):
        engine, memory = self._engine(bank_busy=5, banks=2)
        engine.start(StreamDescriptor(
            StreamKind.LOAD, base=0, count=4, target=self._queue("t"),
        ))
        assert engine.next_event_time(0) == 0
        assert memory.try_issue(0, 0, is_write=True, value=0.0)
        assert engine.next_event_time(1) == 5

    def test_min_across_descriptors(self):
        engine, memory = self._engine(bank_busy=5, banks=2)
        assert memory.try_issue(0, 0, is_write=True, value=0.0)  # bank 0
        assert memory.try_issue(1, 1, is_write=True, value=0.0)  # bank 1
        engine.start(StreamDescriptor(          # bank 0, free at 5
            StreamKind.LOAD, base=0, count=4, target=self._queue("t0"),
        ))
        engine.start(StreamDescriptor(          # bank 1, free at 6
            StreamKind.LOAD, base=1, count=4, stride=2,
            target=self._queue("t1"),
        ))
        assert engine.next_event_time(2) == 5

    def test_malformed_index_forces_live_step(self):
        """A non-integral index must not raise from the pure probe; it
        returns ``now`` so the reference issue path raises the usual
        diagnostic on the very next live cycle."""
        engine, _ = self._engine()
        index_queue = self._queue("i")
        index_queue.push(2.5)
        engine.start(StreamDescriptor(
            StreamKind.GATHER, base=0, count=4,
            target=self._queue("t"), index_queue=index_queue,
        ))
        assert engine.next_event_time(7) == 7

    def test_no_stall_notes_from_probe(self):
        engine, _ = self._engine()
        target = self._queue("t", capacity=1)
        target.push(9.0)
        engine.start(StreamDescriptor(
            StreamKind.LOAD, base=0, count=4, target=target,
        ))
        engine.next_event_time(0)
        assert target.stats.full_stalls == 0


class TestProcessorContracts:
    def _machine(self, ap_text, ep_text="halt", **mem_kwargs):
        cfg = SMAConfig(memory=MemoryConfig(
            latency=mem_kwargs.get("latency", 8),
            bank_busy=mem_kwargs.get("bank_busy", 4),
            num_banks=mem_kwargs.get("banks", 1),
        ))
        return SMAMachine(assemble(ap_text), assemble(ep_text), cfg)

    def test_unstalled_ap_acts_now(self):
        machine = self._machine("nop\nhalt")
        assert machine.ap.next_event_time(3) == 3

    def test_halted_ap_is_passive(self):
        machine = self._machine("halt")
        machine.step_cycle()
        assert machine.ap.halted
        assert machine.ap.next_event_time(5) is None

    def test_memory_busy_ap_clamps_to_bank_free(self):
        machine = self._machine(
            "ldq lq0, #0, #0\nldq lq1, #4, #0\nhalt",
            banks=1, bank_busy=6,
        )
        machine.step_cycle()  # first ldq issues; bank busy until 6
        machine.step_cycle()  # second ldq stalls on memory_busy
        assert machine.ap._stalled_on == "memory_busy"
        assert machine.ap.next_event_time(2) == 6

    def test_rollback_penalty_ap_reports_penalty_end(self):
        machine = SMAMachine(
            assemble("nop\nhalt"), assemble("halt"),
            SMAConfig(speculation=SpeculationConfig(mode="perfect")),
        )
        machine._ensure_speculation()
        machine._spec.penalty_until = 9  # as a rollback at cycle 0 sets
        machine.step_cycle()
        assert machine.ap._stalled_on == "misspeculation"
        assert machine.ap.next_event_time(1) == 9
        assert machine.ap.next_event_time(12) == 12  # overdue clamps

    def test_lod_stalled_ap_is_passive(self):
        machine = self._machine("fromq a1, eaq\nhalt")
        machine.step_cycle()
        assert machine.ap._stalled_on == "lod_eaq"
        assert machine.ap.next_event_time(1) is None

    def test_ep_contract(self):
        machine = self._machine(
            "halt", "add x1, lq0, #1.0\nhalt"
        )
        assert machine.ep.next_event_time(0) == 0
        machine.step_cycle()
        assert machine.ep._stalled_on == "lq_empty"
        assert machine.ep.next_event_time(1) is None

    def test_operand_queue_is_passive(self):
        machine = self._machine("halt")
        for queue in machine.queues.all_queues():
            assert queue.next_event_time(0) is None


# ---------------------------------------------------------------------------
# lazy occupancy accounting survives a partial run boundary
# ---------------------------------------------------------------------------


def test_two_phase_run_keeps_occupancy_exact():
    """Statistics must stay exact when an event-horizon run aborts (cycle
    budget) and a second run finishes the machine — the lazy sampling
    bracket opens and closes twice."""
    kernel, inputs = get_kernel("daxpy").instantiate(32)
    reference = _machine(kernel, inputs, latency=64, depth=4, banks=8)
    expected = _full_observables(
        reference, reference.run(scheduler="naive")
    )

    machine = _machine(kernel, inputs, latency=64, depth=4, banks=8)
    with pytest.raises(SimulationError, match="budget"):
        machine.run(max_cycles=expected["cycle"] // 2,
                    scheduler="event-horizon")
    result = machine.run(scheduler="event-horizon")
    assert _full_observables(machine, result) == expected


@pytest.mark.parametrize("metrics", (False, True))
def test_cluster_two_phase_run_keeps_occupancy_exact(metrics):
    """The cluster version: every node's lazy bracket must close on the
    cycle-budget error path and reopen on the resumed run, and a node
    that finished before the abort must stay frozen at its finish."""
    specs = [
        get_kernel("daxpy").instantiate(16, 1),    # finishes early
        get_kernel("hydro").instantiate(96, 2),    # keeps running
    ]

    def build():
        cluster = _build_cluster(specs, latency=64, depth=4, banks=8)
        return cluster, cluster.attach_metrics() if metrics else None

    reference, ref_metrics = build()
    expected = _cluster_observables(
        reference, reference.run(scheduler="naive"), ref_metrics
    )
    early, late = expected["finish_cycles"]
    budget = (early + late) // 2
    assert early < budget < late

    cluster, node_metrics = build()
    with pytest.raises(SimulationError, match="budget"):
        cluster.run(max_cycles=budget, scheduler="event-horizon")
    result = cluster.run(scheduler="event-horizon")
    assert _cluster_observables(cluster, result, node_metrics) == expected
