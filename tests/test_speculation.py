"""Speculative AP mode (repro.core.speculation): safety and recovery.

The contract under test (ARCHITECTURE §19):

* accuracy 0 never builds an engine — runs are
  bit-identical to a machine with no speculation config at all (cycles,
  every stall bucket, lod accounting, the final memory image);
* a perfect predictor eliminates (nearly) all ``lod_*`` stall cycles on
  LOD-collapsed lowerings while outputs stay word-exact;
* mispredictions roll back completely: wrong-path queue slots, wrong-path
  memory traffic and AP register state all disappear, deterministically;
* every scheduler, on a machine or a cluster, matches naive ticking
  exactly, and the default one skips idle cycles.
"""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    MemoryConfig,
    QueueConfig,
    SMAConfig,
    SpeculationConfig,
)
from repro.core import SMAMachine
from repro.core.access_processor import AccessProcessor
from repro.core.descriptors import StreamDescriptor, StreamEngine, StreamKind
from repro.core.execute_processor import ExecuteProcessor
from repro.core.store_unit import StoreUnit
from repro.errors import SimulationError
from repro.harness.runner import _fit_memory, _load_inputs, run_on_sma
from repro.isa import assemble
from repro.kernels import get_kernel, lower_sma
from repro.memory import BankedMemory, MainMemory
from repro.queues import OperandQueue, QueueFile

from tests.test_cluster_fast_forward import (
    _build_cluster,
    _observables as _cluster_observables,
)
from tests.test_event_horizon import _full_observables
from tests.test_fast_forward import _machine

#: (kernel, lod_variant): every speculation-relevant lowering shape
CASES = (
    ("computed_gather", None),   # native EP-computed subscripts
    ("pic_gather", "addr"),      # rewritten gather indices (lod_eaq)
    ("tridiag", "branch"),       # execute-resolved back-edge (lod_ebq)
)

MEM = MemoryConfig(latency=16, bank_busy=8)


def _spec_cfg(speculation):
    return SMAConfig(memory=MEM, speculation=speculation)


def _run(name, variant, speculation, n=48, seed=7):
    kernel, inputs = get_kernel(name).instantiate(n, seed)
    lowered = lower_sma(kernel, lod_variant=variant)
    return kernel, run_on_sma(
        kernel, inputs, _spec_cfg(speculation), lowered=lowered
    )


def _digest(run):
    h = hashlib.sha256()
    for name in sorted(run.outputs):
        h.update(np.asarray(run.outputs[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def _build(name, variant, speculation, n=32, seed=7, memory=MEM):
    kernel, inputs = get_kernel(name).instantiate(n, seed)
    lowered = lower_sma(kernel, lod_variant=variant)
    cfg = SMAConfig(
        memory=_fit_memory(memory, lowered.layout),
        queues=QueueConfig(),
        speculation=speculation,
    )
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    return machine


class TestDisabledIsBitIdentical:
    @pytest.mark.parametrize("name,variant", CASES)
    @pytest.mark.parametrize(
        "off",
        [None, SpeculationConfig(accuracy=0.0)],
        ids=["no-config", "accuracy-0"],
    )
    def test_disabled_forms_match_plain(self, name, variant, off):
        _, plain = _run(name, variant, None)
        _, disabled = _run(name, variant, off)
        assert disabled.result.cycles == plain.result.cycles
        assert dict(disabled.result.ap.stall_cycles) == \
            dict(plain.result.ap.stall_cycles)
        assert disabled.result.lod_events == plain.result.lod_events
        assert disabled.result.speculation is None
        assert _digest(disabled) == _digest(plain)


class TestRecovery:
    @pytest.mark.parametrize("name,variant", CASES)
    def test_perfect_predictor_eliminates_lod(self, name, variant):
        _, plain = _run(name, variant, None)
        _, spec = _run(
            name, variant,
            SpeculationConfig(accuracy=1.0, max_depth=16),
        )
        assert plain.result.lod_stall_cycles > 0
        assert spec.result.lod_stall_cycles <= \
            0.1 * plain.result.lod_stall_cycles
        assert spec.result.cycles < plain.result.cycles
        assert _digest(spec) == _digest(plain)
        stats = spec.result.speculation
        assert stats["rollbacks"] == 0
        assert stats["predictions"] == stats["correct_predictions"]

    @pytest.mark.parametrize("name,variant", CASES)
    def test_cycles_monotone_in_accuracy(self, name, variant):
        plain_digest = None
        cycles = []
        for accuracy in (0.0, 0.25, 0.5, 0.75, 1.0):
            _, run = _run(
                name, variant,
                SpeculationConfig(accuracy=accuracy, max_depth=16),
            )
            if plain_digest is None:
                plain_digest = _digest(run)
            # wrong-path execution never changes values
            assert _digest(run) == plain_digest
            cycles.append(run.result.cycles)
        assert cycles == sorted(cycles, reverse=True)

    def test_rollbacks_actually_exercised(self):
        _, run = _run(
            "pic_gather", "addr",
            SpeculationConfig(accuracy=0.5, max_depth=16),
        )
        stats = run.result.speculation
        assert stats["rollbacks"] > 0
        assert stats["squashed_completions"] > 0
        assert run.result.ap.stall_cycles.get("misspeculation", 0) > 0

    def test_rollback_deterministic_across_reruns(self):
        spec = SpeculationConfig(accuracy=0.5, max_depth=8)
        _, first = _run("pic_gather", "addr", spec)
        _, again = _run("pic_gather", "addr", spec)
        assert again.result.cycles == first.result.cycles
        assert dict(again.result.ap.stall_cycles) == \
            dict(first.result.ap.stall_cycles)
        assert again.result.speculation == first.result.speculation
        assert _digest(again) == _digest(first)

    def test_predictor_seed_changes_coin_sequence(self):
        a = _run("pic_gather", "addr",
                 SpeculationConfig(accuracy=0.5, seed=0))[1]
        b = _run("pic_gather", "addr",
                 SpeculationConfig(accuracy=0.5, seed=99))[1]
        # different coin sequences, same (correct) outputs
        assert a.result.speculation != b.result.speculation
        assert _digest(a) == _digest(b)


_SPECULATION = st.builds(
    SpeculationConfig,
    accuracy=st.sampled_from((0.25, 0.5, 0.9, 1.0)),
    max_depth=st.integers(1, 8),
    rollback_penalty=st.integers(0, 6),
    seed=st.integers(0, 2**16),
)


class TestScheduling:
    """Event-horizon drives speculation exactly like naive ticking: it
    steps the fast component methods and still jumps idle spans."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(CASES),
        speculation=_SPECULATION,
        latency=st.sampled_from((4, 16, 64)),
        depth=st.sampled_from((2, 4, 8)),
        banks=st.sampled_from((2, 8)),
        metrics=st.booleans(),
    )
    def test_schedulers_match_naive(
        self, case, speculation, latency, depth, banks, metrics
    ):
        """Full result dict (speculation counters, stall_breakdown with
        metrics), every queue histogram and the memory image."""
        name, variant = case
        kernel, inputs = get_kernel(name).instantiate(24, 7)
        observed = {}
        for scheduler in SMAMachine.SCHEDULERS:
            machine = _machine(kernel, inputs, latency, depth, banks,
                               lod_variant=variant, speculation=speculation)
            if metrics:
                machine.attach_metrics()
            result = machine.run(scheduler=scheduler)
            observed[scheduler] = _full_observables(machine, result)
        for scheduler, obs in observed.items():
            assert obs == observed["naive"], scheduler

    @settings(max_examples=12, deadline=None)
    @given(
        nodes=st.lists(st.sampled_from(CASES), min_size=2, max_size=3)
        .filter(lambda ns: {"addr", "branch"} <= {v for _, v in ns}),
        speculation=_SPECULATION,
        latency=st.sampled_from((8, 32)),
        depth=st.sampled_from((2, 8)),
        banks=st.sampled_from((2, 8)),
        seed=st.integers(0, 2**16),
    )
    def test_cluster_schedulers_match_naive(
        self, nodes, speculation, latency, depth, banks, seed
    ):
        specs = [
            get_kernel(name).instantiate(16, seed + j)
            for j, (name, _variant) in enumerate(nodes)
        ]
        variants = [variant for _name, variant in nodes]
        observed = {}
        for scheduler in SMAMachine.SCHEDULERS:
            cluster = _build_cluster(specs, latency, depth, banks,
                                     lod_variants=variants,
                                     speculation=speculation)
            metrics = cluster.attach_metrics()
            result = cluster.run(scheduler=scheduler)
            observed[scheduler] = _cluster_observables(
                cluster, result, metrics
            )
        assert observed["naive"]["nodes"][0]["result"]["speculation"]
        for scheduler, obs in observed.items():
            assert obs == observed["naive"], scheduler

    def test_default_scheduler_skips_cycles(self, monkeypatch):
        """The default scheduler jumps idle spans of a speculative run,
        rollback penalties included, where naive steps every cycle."""
        spec = SpeculationConfig(accuracy=0.5, max_depth=4,
                                 rollback_penalty=16)
        machine = _build("pic_gather", "addr", spec)
        steps = []
        real_step = AccessProcessor.step_fast

        def spy(ap, now):
            moved = real_step(ap, now)
            if ap is machine.ap:
                steps.append((now, ap._stalled_on))
            return moved

        monkeypatch.setattr(AccessProcessor, "step_fast", spy)
        result = machine.run()
        assert result.speculation["rollbacks"] > 0
        assert len(steps) < result.cycles
        skipped_penalty = [
            (now, cause) for (now, cause), (after, _) in zip(steps, steps[1:])
            if after > now + 1 and cause == "misspeculation"
        ]
        assert skipped_penalty, "no rollback penalty was jumped"
        naive = _build("pic_gather", "addr", spec)
        assert naive.run(scheduler="naive").to_dict() == result.to_dict()

    def test_blind_oracle_fails_loudly(self, monkeypatch):
        """A pre-run whose pops of the EP->AP queues bypass the tap must
        raise, not refuse every prediction."""

        def untapped(pop):
            def wrapper(queue, *args):
                tap, queue._tap = queue._tap, None
                try:
                    return pop(queue, *args)
                finally:
                    queue._tap = tap
            return wrapper

        # an empty memo, so the untapped pre-run runs even when an
        # earlier test already recorded this key
        monkeypatch.setattr("repro.core.speculation._ORACLE_MEMO", {})
        for name in ("pop", "pop_at", "pop_slot"):
            monkeypatch.setattr(
                OperandQueue, name, untapped(getattr(OperandQueue, name))
            )
        machine = _build("pic_gather", "addr",
                         SpeculationConfig(accuracy=1.0))
        with pytest.raises(SimulationError, match="oracle pre-run"):
            machine.run()


def _poisoned(case):
    """A component whose next move waits on a poisoned queue head (the
    one queue named by ``case``); returns it with its queue file and
    memory."""
    memory = BankedMemory(MainMemory(256), MemoryConfig(size=256))
    queues = QueueFile(SMAConfig())
    sdq = queues.store_data[0]
    if case == "engine-iq":
        unit = StreamEngine(memory, max_streams=4)
        slot = queues.index[0].push(3.0)
        unit.start(StreamDescriptor(
            StreamKind.GATHER, base=8, count=1,
            target=queues.load[0], index_queue=queues.index[0],
        ))
    elif case == "engine-sdq":
        unit = StreamEngine(memory, max_streams=4)
        slot = sdq.push(1.5)
        unit.start(StreamDescriptor(
            StreamKind.STORE, base=8, count=1, data_queue=sdq,
        ))
    elif case in ("store-saq", "store-sdq"):
        unit = StoreUnit(queues, memory)
        saq_slot = queues.store_addr.push((8, 0))
        sdq_slot = sdq.push(1.5)
        slot = saq_slot if case == "store-saq" else sdq_slot
    else:  # "ep-lq"
        unit = ExecuteProcessor(assemble("add sdq0, lq0, #1\nhalt"), queues)
        slot = queues.load[0].push(2.0)
    slot.poisoned = True
    return unit, queues, memory, slot


class TestFastPathsUnderSpeculation:
    """The default loop steps only the ``*_fast`` methods, which hide
    poisoned heads and call the speculation hooks as the reference
    methods do."""

    @pytest.mark.parametrize("name,variant",
                             [("pic_gather", "addr"), ("tridiag", "branch")])
    @pytest.mark.parametrize("speculation", [
        SpeculationConfig(accuracy=0.5, max_depth=8, seed=3),
        SpeculationConfig(accuracy=1.0, max_depth=16),
    ], ids=["coin-0.5", "perfect"])
    def test_default_loop_steps_no_reference_method(
        self, monkeypatch, name, variant, speculation
    ):
        naive = _build(name, variant, speculation)
        naive.attach_metrics()
        want = _full_observables(naive, naive.run(scheduler="naive"))
        calls = []
        for cls, method in ((AccessProcessor, "step"),
                            (ExecuteProcessor, "step"),
                            (StreamEngine, "tick"), (StoreUnit, "tick")):
            def spy(unit, now, real=getattr(cls, method),
                    label=f"{cls.__name__}.{method}"):
                calls.append(label)
                return real(unit, now)

            monkeypatch.setattr(cls, method, spy)
        machine = _build(name, variant, speculation)
        machine.attach_metrics()
        got = _full_observables(machine, machine.run())
        assert calls == []
        assert got["result"]["speculation"]["predictions"] > 0
        assert got == want

    @pytest.mark.parametrize("case,notes", [
        ("engine-iq", {}),
        ("engine-sdq", {"sdq0": 1}),
        ("store-saq", {}),
        ("store-sdq", {"sdq0": 1}),
        ("ep-lq", {"lq0": 1}),
    ])
    def test_poisoned_head_is_not_ready_on_either_path(self, case, notes):
        """tick/tick_fast (step/step_fast for the EP) make the same
        decision and note the same stalls on a poisoned head, and act
        alike once the poison is cleared.  ``notes`` are the reference
        paths' empty-head notes: only a consumer whose other inputs are
        ready notes one."""
        method = "step" if case == "ep-lq" else "tick"
        seen = {}
        for name in (method, method + "_fast"):
            unit, queues, memory, slot = _poisoned(case)

            def observe(outcome):
                return (outcome, asdict(unit.stats), asdict(memory.stats),
                        {q.name: asdict(q.stats)
                         for q in queues.all_queues()})

            blocked = observe(getattr(unit, name)(0))
            slot.poisoned = False
            seen[name] = (blocked, observe(getattr(unit, name)(1)))
        assert seen[method + "_fast"] == seen[method]
        (_, _, memory, queue_stats), (_, ready, memory_after, _) = \
            seen[method]
        assert memory["reads"] + memory["writes"] == 0
        assert {name: stats["empty_stalls"]
                for name, stats in queue_stats.items()
                if stats["empty_stalls"]} == notes
        if case == "ep-lq":
            assert ready["instructions"] == 1
        else:
            assert memory_after["reads"] + memory_after["writes"] == 1


class TestOracleMemo:
    SPEC = SpeculationConfig(accuracy=0.5, max_depth=4)

    def _count_builds(self, monkeypatch):
        builds = []
        real_init = SMAMachine.__init__

        def spy(machine, *args, **kwargs):
            builds.append(machine)
            real_init(machine, *args, **kwargs)

        monkeypatch.setattr(SMAMachine, "__init__", spy)
        return builds

    def test_same_key_runs_no_pre_run(self, monkeypatch):
        monkeypatch.setattr("repro.core.speculation._ORACLE_MEMO", {})
        first = _build("pic_gather", "addr", self.SPEC)
        first.attach_metrics()
        want = _full_observables(first, first.run())
        second = _build("pic_gather", "addr", self.SPEC)
        second.attach_metrics()
        builds = self._count_builds(monkeypatch)
        got = _full_observables(second, second.run())
        assert builds == []
        assert got == want

    def test_changed_input_or_memory_config_misses(self, monkeypatch):
        monkeypatch.setattr("repro.core.speculation._ORACLE_MEMO", {})
        _build("pic_gather", "addr", self.SPEC).run()
        kernel = get_kernel("pic_gather").instantiate(32, 7)[0]
        layout = lower_sma(kernel, lod_variant="addr").layout
        changed_input = _build("pic_gather", "addr", self.SPEC)
        changed_input.memory._words[layout.base("e")] += 1.0
        other_memory = _build("pic_gather", "addr", self.SPEC,
                              memory=MemoryConfig(latency=8, bank_busy=4))
        builds = self._count_builds(monkeypatch)
        changed_input.run()
        assert len(builds) == 1
        other_memory.run()
        assert len(builds) == 2


class TestConfig:
    def test_enabled_property(self):
        assert not SpeculationConfig(accuracy=0.0).enabled
        assert SpeculationConfig(accuracy=0.5).enabled
        assert SpeculationConfig().enabled

    def test_lower_sma_rejects_unknown_variant(self):
        from repro.errors import LoweringError

        kernel, _ = get_kernel("daxpy").instantiate(16, 0)
        with pytest.raises(LoweringError, match="lod_variant"):
            lower_sma(kernel, lod_variant="sideways")

    def test_job_rejects_unknown_variant(self):
        from repro.harness.jobs import Job

        with pytest.raises(ValueError, match="lod_variant"):
            Job("sma", "daxpy", 16, lod_variant="sideways")
