"""Event-horizon scheduler equivalence and per-component contracts.

Two layers of guarantees:

**Equivalence** — running the same machine (or cluster) under every
registered scheduler (the ``"naive"`` reference and ``"event-horizon"``)
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

import heapq
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import MemoryConfig, SMAConfig, SpeculationConfig
from repro.core import SMAMachine
from repro.core.access_processor import AccessProcessor
from repro.core.descriptors import StreamDescriptor, StreamEngine, StreamKind
from repro.core.execute_processor import ExecuteProcessor
from repro.core.store_unit import StoreUnit
from repro.errors import SimulationError
from repro.isa import assemble
from repro.kernels import get_kernel, kernel_names
from repro.memory import BankedMemory, MainMemory
from repro.queues import OperandQueue, QueueFile

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
                        metrics=False, **machine_kwargs):
    observed = {}
    for scheduler in SCHEDULERS:
        machine = _machine(kernel, inputs, latency, depth, banks,
                           **machine_kwargs)
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


#: speculative walker configs: mispredictions (rollback penalties and
#: depth refusals) and a perfect predictor (frames only ever commit)
_COIN = SpeculationConfig(accuracy=0.5, max_depth=2, rollback_penalty=12)
_PERFECT = SpeculationConfig(accuracy=1.0, max_depth=8)


@settings(max_examples=40, deadline=None)
@given(
    _fuzz_kernels(),
    st.sampled_from((1, 2, 4, 8, 16, 32, 64)),  # latency
    st.sampled_from((1, 2, 4, 8, 16)),        # queue depth
    st.sampled_from((1, 2, 8)),               # banks
    st.sampled_from((1, 2)),                  # stream issue per cycle
    st.sampled_from((1, 2)),                  # memory accepts per cycle
    st.sampled_from((None, _COIN)),           # speculation
    st.integers(0, 2**31),                    # input seed
)
def test_schedulers_identical_on_random_kernels(
    kernel_n, latency, depth, banks, issue, accepts, speculation, seed
):
    kernel, _n = kernel_n
    rng = np.random.default_rng(seed)
    inputs = {
        decl.name: rng.uniform(-2, 2, decl.size) for decl in kernel.arrays
    }
    _run_all_schedulers(kernel, inputs, latency, depth, banks,
                        issue=issue, accepts=accepts,
                        speculation=speculation)


#: suite kernels with their loss-of-decoupling lowering, the shapes a
#: speculation config opens frames on
_LOD_SHAPES = (("pic_gather", "addr"), ("tridiag", "branch"),
               ("computed_gather", None))


@st.composite
def _suite_machines(draw):
    """A random suite kernel on a random configuration, speculative on
    some examples: ``(kernel, inputs, _machine keyword arguments)``."""
    speculation = draw(st.sampled_from((None, _COIN, _PERFECT)))
    if speculation is None:
        name = draw(st.sampled_from(kernel_names()))
        variant = None
    else:
        name, variant = draw(st.sampled_from(_LOD_SHAPES))
    kernel, inputs = get_kernel(name).instantiate(
        16, draw(st.integers(0, 2**31)))
    return kernel, inputs, dict(
        latency=draw(st.sampled_from((2, 8, 32))),
        depth=draw(st.sampled_from((1, 2, 8))),
        banks=draw(st.sampled_from((1, 2, 8))),
        issue=draw(st.sampled_from((1, 2))),
        accepts=draw(st.sampled_from((1, 2))),
        lod_variant=variant,
        speculation=speculation,
    )


@settings(max_examples=30, deadline=None)
@given(_suite_machines())
def test_schedulers_identical_on_random_suite_configs(case):
    kernel, inputs, config = case
    _run_all_schedulers(kernel, inputs, **config)


#: each fast step and the counter that moves exactly when it progresses
_FAST_STEPS = (
    (AccessProcessor, "step_fast", lambda ap: ap.stats.instructions),
    (ExecuteProcessor, "step_fast", lambda ep: ep.stats.instructions),
    (StreamEngine, "tick_fast", lambda se: se.stats.requests_issued),
    (StoreUnit, "tick_fast", lambda su: su.stats.stores_issued),
)


@contextmanager
def _checking_fast_step_returns():
    """Wrap every fast step so each call asserts its return is truthy
    exactly when its own progress counter moved; yields the number of
    calls that progressed and that did not."""
    seen = {True: 0, False: 0}
    saved = [(cls, name, getattr(cls, name)) for cls, name, _ in _FAST_STEPS]
    for (cls, name, real), (_, _, counter) in zip(saved, _FAST_STEPS):
        def checked(unit, now, real=real, counter=counter, label=name):
            before = counter(unit)
            moved = real(unit, now)
            assert bool(moved) == (counter(unit) != before), \
                f"{type(unit).__name__}.{label} returned {moved!r}"
            seen[bool(moved)] += 1
            return moved

        setattr(cls, name, checked)
    try:
        yield seen
    finally:
        for cls, name, real in saved:
            setattr(cls, name, real)


@settings(max_examples=30, deadline=None)
@given(_suite_machines())
def test_fast_steps_report_their_own_progress(case):
    """The event-horizon loop takes a cycle's progress from the steps'
    returns, so each fast step must return truthy exactly when it
    retired an instruction or issued a request."""
    kernel, inputs, config = case
    machine = _machine(kernel, inputs, **config)
    with _checking_fast_step_returns() as seen:
        machine.run(scheduler="event-horizon")
    assert seen[True] and seen[False]


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
    closed-form replay to the buckets naive ticking classifies cycle by
    cycle."""
    kernel, inputs = get_kernel("tridiag").instantiate(48)
    obs = _run_all_schedulers(
        kernel, inputs, latency=64, depth=2, banks=8, metrics=True
    )
    breakdown = obs["result"]["stall_breakdown"]
    assert sum(breakdown.values()) == obs["cycle"]


def test_two_registered_schedulers():
    assert list(SCHEDULERS) == ["naive", "event-horizon"]
    for name, entry in SCHEDULERS.items():
        assert callable(entry), name


#: loops the registry used to hold and no longer does
_RETIRED = ("joint-idle", "codegen")
#: names that are not loops: a made-up one and the retired loops
_UNKNOWN = ("speculative",) + _RETIRED


def _assert_machine_rejects(name):
    machine = _machine(
        *get_kernel("daxpy").instantiate(8), latency=4, depth=4, banks=4
    )
    with pytest.raises(ValueError, match="unknown scheduler"):
        machine.run(scheduler=name)


def test_unknown_scheduler_rejected():
    _assert_machine_rejects("speculative")


def test_retired_schedulers_rejected():
    """Asking a machine for a deleted loop is an error, not a silent
    fallback to another loop."""
    for name in _RETIRED:
        _assert_machine_rejects(name)


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


def test_dropped_completion_deadlocks_alike_on_both_loops():
    """A load completion lost in flight leaves its reserved queue slot
    unfilled forever: every loop must report the deadlock at the same
    cycle with the same stall accounting, not hang."""
    kernel, inputs = get_kernel("daxpy").instantiate(32)
    observed = {}
    for scheduler in SCHEDULERS:
        machine = _machine(kernel, inputs, latency=8, depth=8, banks=8)
        while not machine.banked._completions:
            machine.step_cycle()
        heapq.heappop(machine.banked._completions)
        with pytest.raises(SimulationError, match="deadlock"):
            machine.run(deadlock_window=500, scheduler=scheduler)
        observed[scheduler] = (machine.cycle,
                               dict(machine.ap.stats.stall_cycles),
                               dict(machine.ep.stats.stall_cycles))
    assert observed["event-horizon"] == observed["naive"]
    # the EP waits on the load queue whose slot never fills
    assert set(observed["naive"][2]) == {"lq_empty"}


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
        st.sampled_from(("daxpy", "hydro", "tridiag", "pic_gather",
                         "computed_gather")),
        min_size=1, max_size=3,
    ),
    st.sampled_from((1, 8, 32, 64)),      # latency
    st.sampled_from((2, 8)),              # queue depth
    st.sampled_from((2, 8)),              # banks
    st.sampled_from((1, 2)),              # port width
    st.sampled_from((1, 2)),              # stream issue per cycle
    st.sampled_from((None, _COIN)),       # speculation
    st.sampled_from((None, "addr", "branch")),  # plain nodes' lowering
    st.integers(0, 2**31),                # input seed
    st.booleans(),                        # metrics attached
)
# one node finishes early (see test_cluster_fast_forward)
@example(names=["daxpy", "daxpy"], latency=8, depth=2, banks=2, ports=1,
         issue=1, speculation=None, lod_variant=None, seed=0, metrics=False)
# plain nodes on loss-of-decoupling lowerings, one a computed gather
@example(names=["pic_gather", "computed_gather"], latency=1, depth=2,
         banks=2, ports=1, issue=1, speculation=None, lod_variant="addr",
         seed=0, metrics=False)
def test_cluster_schedulers_identical_on_random_mixes(
    names, latency, depth, banks, ports, issue, speculation, lod_variant,
    seed, metrics
):
    specs = [
        get_kernel(name).instantiate(24, seed + j)
        for j, name in enumerate(names)
    ]
    # a speculative node runs its kernel's loss-of-decoupling lowering,
    # a plain node the drawn one
    variants = [dict(_LOD_SHAPES).get(name) if speculation else lod_variant
                for name in names]
    observed = {}
    for scheduler in SCHEDULERS:
        cluster = _build_cluster(specs, latency, depth, banks, ports,
                                 lod_variants=variants,
                                 speculation=speculation, issue=issue)
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
    for name in _UNKNOWN:
        cluster = _build_cluster(specs, latency=8, depth=4, banks=4)
        with pytest.raises(ValueError, match="unknown scheduler"):
            cluster.run(scheduler=name)


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
        queue = OperandQueue("lq0", 2)
        assert mem.try_issue(0, 0, queue=queue, slot=queue.reserve())
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
            SMAConfig(speculation=SpeculationConfig(accuracy=1.0)),
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
