"""Speculative AP mode (repro.core.speculation): safety and recovery.

The contract under test (ARCHITECTURE §19):

* accuracy 0 / mode "never" never builds an engine — runs are
  bit-identical to a machine with no speculation config at all (cycles,
  every stall bucket, lod accounting, the final memory image);
* a perfect predictor eliminates (nearly) all ``lod_*`` stall cycles on
  LOD-collapsed lowerings while outputs stay word-exact;
* mispredictions roll back completely: wrong-path queue slots, wrong-path
  memory traffic and AP register state all disappear, deterministically;
* speculation state round-trips through checkpoint/restore, and a
  snapshot taken while predictions are unresolved is refused;
* every scheduler, on a machine or a cluster, matches naive ticking
  exactly, and the default one skips idle cycles.
"""

import hashlib
import json

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
from repro.errors import CheckpointError, SimulationError
from repro.harness.runner import _fit_memory, _load_inputs, run_on_sma
from repro.kernels import get_kernel, lower_sma
from repro.queues import OperandQueue

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


def _build(name, variant, speculation, n=32, seed=7):
    kernel, inputs = get_kernel(name).instantiate(n, seed)
    lowered = lower_sma(kernel, lod_variant=variant)
    cfg = SMAConfig(
        memory=_fit_memory(MEM, lowered.layout),
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
        [None,
         SpeculationConfig(accuracy=0.0),
         SpeculationConfig(mode="never")],
        ids=["no-config", "accuracy-0", "mode-never"],
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
            SpeculationConfig(mode="perfect", max_depth=16),
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
    steps the reference component methods and still jumps idle spans."""

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
        real_step = AccessProcessor.step

        def spy(ap, now):
            real_step(ap, now)
            if ap is machine.ap:
                steps.append((now, ap._stalled_on))

        monkeypatch.setattr(AccessProcessor, "step", spy)
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
            def wrapper(queue):
                tap, queue._tap = queue._tap, None
                try:
                    return pop(queue)
                finally:
                    queue._tap = tap
            return wrapper

        for name in ("pop", "pop_slot"):
            monkeypatch.setattr(
                OperandQueue, name, untapped(getattr(OperandQueue, name))
            )
        machine = _build("pic_gather", "addr",
                         SpeculationConfig(mode="perfect"))
        with pytest.raises(SimulationError, match="oracle pre-run"):
            machine.run()


class TestCheckpoint:
    def test_snapshot_refused_mid_speculation(self):
        machine = _build(
            "computed_gather", None,
            SpeculationConfig(mode="perfect", max_depth=16),
        )
        for _ in range(200_000):
            machine.step_cycle()
            if machine._spec is not None and machine._spec.in_flight():
                break
        else:
            raise AssertionError("speculation never went in flight")
        with pytest.raises(CheckpointError, match="mid-speculation"):
            machine.snapshot()

    def test_roundtrip_between_speculations(self):
        spec = SpeculationConfig(accuracy=0.5, max_depth=4)
        straight = _build("computed_gather", None, spec)
        want = straight.run()

        source = _build("computed_gather", None, spec)
        cut = 0
        for _ in range(200_000):
            source.step_cycle()
            cut += 1
            if (cut > 50 and source._spec is not None
                    and source._spec.idle() and not source.done()):
                break
        snap = json.loads(json.dumps(source.snapshot()))

        resumed = _build("computed_gather", None, spec)
        resumed.restore(snap)
        got = resumed.run()
        assert got.cycles == want.cycles
        assert dict(got.ap.stall_cycles) == dict(want.ap.stall_cycles)
        assert got.speculation == want.speculation
        assert np.array_equal(resumed.memory._words,
                              straight.memory._words)

    def test_plain_snapshot_has_no_speculation_key(self):
        machine = _build("computed_gather", None, None)
        machine.step_cycles(20)
        assert "speculation" not in machine.snapshot()


class TestConfig:
    def test_enabled_property(self):
        assert not SpeculationConfig(accuracy=0.0).enabled
        assert not SpeculationConfig(mode="never").enabled
        assert SpeculationConfig(accuracy=0.5).enabled
        assert SpeculationConfig(mode="perfect", accuracy=0.0).enabled

    def test_lower_sma_rejects_unknown_variant(self):
        from repro.errors import LoweringError

        kernel, _ = get_kernel("daxpy").instantiate(16, 0)
        with pytest.raises(LoweringError, match="lod_variant"):
            lower_sma(kernel, lod_variant="sideways")

    def test_job_rejects_unknown_variant(self):
        from repro.harness.jobs import Job

        with pytest.raises(ValueError, match="lod_variant"):
            Job("sma", "daxpy", 16, lod_variant="sideways")
