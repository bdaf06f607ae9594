"""Fast-forward equivalence: the accelerated simulation loop must be
indistinguishable from naive cycle-by-cycle ticking.

The property at the heart of this module runs the same machine twice —
``scheduler="naive"`` (one Python iteration per simulated cycle, the
seed behaviour) and ``scheduler="event-horizon"`` (idle stretches
replayed in closed form) — and requires *every* observable statistic to be
bit-identical: cycle counts, stall-cause counters, LOD accounting,
memory traffic and utilization, and each queue's full occupancy
histogram.  This is what licenses keeping ``tests/golden_cycles.json``
unchanged while the simulator got faster.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MemoryConfig, QueueConfig, SMAConfig
from repro.core import SMAMachine
from repro.errors import SimulationError
from repro.harness.runner import _fit_memory, _load_inputs
from repro.isa import Instruction, Op, Program, Queue, QueueSpace, Reg
from repro.kernels import (
    Affine,
    ArrayDecl,
    Assign,
    BinOp,
    Const,
    Kernel,
    Loop,
    Ref,
    get_kernel,
    lower_sma,
)

#: suite kernels with structurally diverse access patterns (streams,
#: recurrence, gather, loss-of-decoupling)
SUITE_REPS = ("daxpy", "hydro", "tridiag", "computed_gather", "pic_gather")


def _machine(kernel, inputs, latency, depth, banks, lod_variant=None,
             speculation=None, issue=1, accepts=1):
    """``issue`` is the stream engine's ``stream_issue_per_cycle``,
    ``accepts`` the memory's ``accepts_per_cycle``."""
    lowered = lower_sma(kernel, lod_variant=lod_variant)
    queues = QueueConfig(
        load_queue_depth=depth,
        store_data_depth=depth,
        store_addr_depth=depth,
        index_queue_depth=depth,
    )
    mem = MemoryConfig(
        latency=latency, bank_busy=max(1, latency // 2), num_banks=banks,
        accepts_per_cycle=accepts,
    )
    cfg = SMAConfig(
        memory=_fit_memory(mem, lowered.layout), queues=queues,
        speculation=speculation, stream_issue_per_cycle=issue,
    )
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    return machine


def _loop(fast: bool) -> str:
    """The scheduler a fast (``True``) or naive (``False``) run asks for."""
    return "event-horizon" if fast else "naive"


def _observables(machine, result):
    """Everything the two simulation modes must agree on, exactly."""
    return {
        "cycle": machine.cycle,
        "result": result.to_dict(),
        "ap_stalls": dict(result.ap.stall_cycles),
        "ep_stalls": dict(result.ep.stall_cycles),
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


def _run_both_modes(kernel, inputs, latency, depth, banks):
    observed = []
    for fast in (False, True):
        machine = _machine(kernel, inputs, latency, depth, banks)
        result = machine.run(scheduler=_loop(fast))
        observed.append(_observables(machine, result))
    naive, fast = observed
    assert naive == fast


@st.composite
def _fuzz_kernels(draw):
    """Random streaming kernels over two input arrays."""
    n = draw(st.integers(3, 14))
    expr = Ref("a", Affine.of(0, i=1))
    for _ in range(draw(st.integers(0, 2))):
        other = draw(
            st.one_of(
                st.builds(
                    Const,
                    st.floats(-2, 2, allow_nan=False).map(
                        lambda f: round(f, 3)
                    ),
                ),
                st.just(Ref("b", Affine.of(0, i=1))),
            )
        )
        expr = BinOp(draw(st.sampled_from(("+", "-", "*", "max"))),
                     expr, other)
    kernel = Kernel(
        "fuzz_ff",
        (ArrayDecl("a", n + 2), ArrayDecl("b", n + 2),
         ArrayDecl("x", n + 2)),
        (Loop("i", n, (Assign(Ref("x", Affine.of(0, i=1)), expr),)),),
    )
    return kernel, n


@settings(max_examples=40, deadline=None)
@given(
    _fuzz_kernels(),
    st.sampled_from((2, 4, 8, 16, 32, 64)),   # latency
    st.sampled_from((1, 2, 4, 8, 16)),        # queue depth
    st.sampled_from((1, 2, 8)),               # banks
    st.integers(0, 2**31),                    # input seed
)
def test_fast_forward_identical_on_random_kernels(
    kernel_n, latency, depth, banks, seed
):
    kernel, _n = kernel_n
    rng = np.random.default_rng(seed)
    inputs = {
        decl.name: rng.uniform(-2, 2, decl.size) for decl in kernel.arrays
    }
    _run_both_modes(kernel, inputs, latency, depth, banks)


@pytest.mark.parametrize("name", SUITE_REPS)
@pytest.mark.parametrize("latency", (2, 8, 32, 64))
@pytest.mark.parametrize("depth", (1, 4, 16))
def test_fast_forward_identical_on_suite_kernels(name, latency, depth):
    kernel, inputs = get_kernel(name).instantiate(32)
    _run_both_modes(kernel, inputs, latency, depth, banks=8)


def test_fast_forward_identical_without_streams():
    """Per-element (descriptor-less) mode takes different stall paths."""
    kernel, inputs = get_kernel("daxpy").instantiate(32)
    lowered = lower_sma(kernel, use_streams=False)
    observed = []
    for fast in (False, True):
        mem = MemoryConfig(latency=32, bank_busy=16, num_banks=8)
        cfg = SMAConfig(
            memory=_fit_memory(mem, lowered.layout), queues=QueueConfig()
        )
        machine = SMAMachine(
            lowered.access_program, lowered.execute_program, cfg
        )
        _load_inputs(machine, lowered.layout, kernel, inputs)
        result = machine.run(scheduler=_loop(fast))
        observed.append(_observables(machine, result))
    assert observed[0] == observed[1]


# ---------------------------------------------------------------------------
# an observer runs only on the naive loop
# ---------------------------------------------------------------------------


def test_observer_sees_every_cycle():
    """An attached observer must receive one call per simulated cycle,
    in order, even when fast-forward is globally enabled."""
    kernel, inputs = get_kernel("daxpy").instantiate(32)
    machine = _machine(kernel, inputs, latency=64, depth=8, banks=8)
    seen = []
    result = machine.run(observer=lambda m, cycle: seen.append(cycle))
    assert seen == list(range(result.cycles))

    # and the traced run matches the fast run's statistics exactly
    fast = _machine(kernel, inputs, latency=64, depth=8, banks=8)
    assert fast.run(scheduler="event-horizon").to_dict() == result.to_dict()


def test_observer_refuses_the_event_horizon_loop():
    """Asking for event-horizon with an observer is an error, not a
    silent switch to naive ticking; the machine is left untouched."""
    kernel, inputs = get_kernel("daxpy").instantiate(32)
    machine = _machine(kernel, inputs, latency=64, depth=8, banks=8)
    seen = []
    with pytest.raises(ValueError, match="only on the naive loop"):
        machine.run(observer=lambda m, cycle: seen.append(cycle),
                    scheduler="event-horizon")
    assert seen == [] and machine.cycle == 0


# ---------------------------------------------------------------------------
# zero-cycle / immediate-halt result collection (satellite)
# ---------------------------------------------------------------------------

_HALT = Program("halt_only", (Instruction(Op.HALT, None, ()),), {})


def test_collect_result_before_any_cycle():
    """An unrun machine must report zeroed rates, not divide by zero."""
    machine = SMAMachine(_HALT, _HALT, SMAConfig())
    result = machine.collect_result()
    assert result.cycles == 0
    assert result.mean_outstanding_loads == 0.0
    assert result.memory_utilization == 0.0


def test_immediately_halting_program():
    machine = SMAMachine(_HALT, _HALT, SMAConfig())
    result = machine.run()
    assert result.cycles >= 1
    assert result.instructions == 2  # the two HALTs
    assert result.mean_outstanding_loads == 0.0
    assert result.memory_utilization == 0.0


# ---------------------------------------------------------------------------
# exception parity: deadlocks and budgets fire identically in both modes
# ---------------------------------------------------------------------------


def _starved_machine():
    """EP waits forever on a load queue nothing fills."""
    ep = Program(
        "starved",
        (
            Instruction(Op.ADD, Reg(0), (Queue(QueueSpace.LQ, 0), Reg(0))),
            Instruction(Op.HALT, None, ()),
        ),
        {},
    )
    return SMAMachine(_HALT, ep, SMAConfig())


@pytest.mark.parametrize("fast", (False, True))
def test_deadlock_detected_identically(fast):
    machine = _starved_machine()
    with pytest.raises(SimulationError, match="deadlock"):
        machine.run(deadlock_window=100, scheduler=_loop(fast))
    # the deadlock must fire at the same cycle with the same accounting
    reference = _starved_machine()
    with pytest.raises(SimulationError):
        reference.run(deadlock_window=100, scheduler=_loop(not fast))
    assert machine.cycle == reference.cycle
    assert dict(machine.ep.stats.stall_cycles) == dict(
        reference.ep.stats.stall_cycles
    )


@pytest.mark.parametrize("fast", (False, True))
def test_cycle_budget_detected_identically(fast):
    machine = _starved_machine()
    with pytest.raises(SimulationError, match="budget"):
        machine.run(max_cycles=60, deadlock_window=1000, scheduler=_loop(fast))
    reference = _starved_machine()
    with pytest.raises(SimulationError, match="budget"):
        reference.run(
            max_cycles=60, deadlock_window=1000, scheduler=_loop(not fast)
        )
    assert machine.cycle == reference.cycle
    assert dict(machine.ep.stats.stall_cycles) == dict(
        reference.ep.stats.stall_cycles
    )
