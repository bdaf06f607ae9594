"""Codegen backend unit tests (repro.codegen) beyond bit-identity.

The scheduler-equivalence property tests live in
``tests/test_event_horizon.py``; this module pins the machinery around
the compiled artifacts: cache keying and invalidation (program, config,
simulator-source fingerprint, LRU bound, the negative cache for
unspecializable programs), the fault-injection downgrade to naive
ticking, the quiescent-entry guard that routes restored snapshots and
resumed budget aborts through the interpreted event-horizon loop,
deterministic emission, the scheduler registry, and the ``repro
codegen`` CLI surface.
"""

import pytest

from repro.codegen import (
    cached_artifacts,
    clear_cache,
    compiled_loop_for,
    stats,
)
from repro.codegen import cache as codegen_cache
from repro.codegen.emitter import MachineLoopEmitter, Unsupported
from repro.config import (
    FaultConfig,
    MemoryConfig,
    QueueConfig,
    SMAConfig,
)
from repro.core import SMAMachine
from repro.errors import SimulationError
from repro.harness.runner import _fit_memory, _load_inputs
from repro.kernels import get_kernel, lower_sma

from tests.test_event_horizon import _full_observables
from tests.test_fast_forward import _machine


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _kernel(name="daxpy", n=24, seed=0):
    return get_kernel(name).instantiate(n, seed)


def _build(name="daxpy", n=24, latency=8, depth=4, banks=8, seed=0):
    kernel, inputs = _kernel(name, n, seed)
    return _machine(kernel, inputs, latency, depth, banks)


def _faulted_machine(latency=8, **faults):
    """Like ``_machine`` but with transient memory faults injected."""
    kernel, inputs = _kernel()
    lowered = lower_sma(kernel)
    mem = MemoryConfig(latency=latency, bank_busy=max(1, latency // 2))
    cfg = SMAConfig(
        memory=_fit_memory(mem, lowered.layout),
        queues=QueueConfig(),
        faults=FaultConfig(**faults) if faults else None,
    )
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    return machine


# ---------------------------------------------------------------------------
# cache keying and invalidation
# ---------------------------------------------------------------------------


class TestCacheKeying:
    def test_same_program_and_config_hit(self):
        first = compiled_loop_for(_build())
        second = compiled_loop_for(_build())
        assert first is second
        assert stats.compiles == 1
        assert (stats.hits, stats.misses) == (1, 1)

    def test_input_values_do_not_key(self):
        # the emitter specializes on programs and config, never on
        # memory contents — different inputs must share the artifact
        assert compiled_loop_for(_build(seed=1)) is \
            compiled_loop_for(_build(seed=2))

    def test_config_change_recompiles(self):
        first = compiled_loop_for(_build(latency=8))
        second = compiled_loop_for(_build(latency=16))
        assert first is not second
        assert first.key != second.key
        assert stats.compiles == 2

    def test_program_change_recompiles(self):
        assert compiled_loop_for(_build("daxpy")).key != \
            compiled_loop_for(_build("hydro")).key

    def test_source_edit_invalidates(self, monkeypatch):
        first = compiled_loop_for(_build())
        monkeypatch.setattr(
            codegen_cache, "_code_fingerprint", lambda: "edited-sources"
        )
        second = compiled_loop_for(_build())
        assert first is not second
        assert stats.compiles == 2

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(codegen_cache, "MAX_ENTRIES", 2)
        for latency in (4, 8, 16):
            compiled_loop_for(_build(latency=latency))
        assert stats.evictions == 1
        assert len(cached_artifacts()) == 2
        # the evictee was the least recently used: latency=4 recompiles
        compiled_loop_for(_build(latency=16))
        assert stats.compiles == 3
        compiled_loop_for(_build(latency=4))
        assert stats.compiles == 4

    def test_unsupported_program_negative_cached(self, monkeypatch):
        def boom(self):
            raise Unsupported("exotic operand")

        monkeypatch.setattr(MachineLoopEmitter, "generate", boom)
        assert compiled_loop_for(_build()) is None
        assert compiled_loop_for(_build()) is None
        # second lookup short-circuits on the negative cache: one
        # emission attempt, one recorded miss
        assert stats.unsupported == 1
        assert stats.misses == 1

    def test_emission_is_deterministic(self):
        a = MachineLoopEmitter(_build()).generate()
        b = MachineLoopEmitter(_build()).generate()
        assert a == b


# ---------------------------------------------------------------------------
# downgrades and fallbacks
# ---------------------------------------------------------------------------


class TestFallbacks:
    def test_fault_injection_downgrades_to_naive(self):
        faulted = _faulted_machine(reject_prob=0.2, seed=7)
        got = faulted.run(scheduler="codegen")
        reference = _faulted_machine(reject_prob=0.2, seed=7)
        want = reference.run(scheduler="naive")
        assert _full_observables(faulted, got) == \
            _full_observables(reference, want)
        # the downgrade happens before artifact lookup: nothing compiled
        assert stats.compiles == 0

    def test_resumed_budget_abort_stays_bit_identical(self):
        reference = _build()
        want = reference.run(scheduler="naive")

        machine = _build()
        with pytest.raises(SimulationError, match="cycle budget"):
            machine.run(max_cycles=want.cycles // 2,
                        scheduler="event-horizon")
        # mid-flight state (live streams / in-flight completions) makes
        # the quiescent-entry guard route this through the interpreted
        # event-horizon loop — still bit-identical
        got = machine.run(scheduler="codegen")
        assert _full_observables(machine, got) == \
            _full_observables(reference, want)

    def test_restored_snapshot_stays_bit_identical(self):
        reference = _build()
        want = reference.run(scheduler="naive")

        donor = _build()
        with pytest.raises(SimulationError, match="cycle budget"):
            donor.run(max_cycles=want.cycles // 2,
                      scheduler="naive")
        machine = _build()
        machine.restore(donor.snapshot())
        got = machine.run(scheduler="codegen")
        assert _full_observables(machine, got) == \
            _full_observables(reference, want)

    def test_cluster_node_is_never_compiled(self):
        """The artifact key carries no memory ownership, so a machine
        that shares its memory (a cluster node) must not reach the
        compiler; it runs the interpreted event-horizon loop."""
        from tests.test_cluster_fast_forward import _build_cluster

        specs = [_kernel("daxpy", 16)]
        nodes = [
            _build_cluster(specs, latency=8, depth=4, banks=8).nodes[0]
            for _ in range(2)
        ]
        got = nodes[0].run(scheduler="codegen")
        want = nodes[1].run(scheduler="event-horizon")
        assert stats.compiles == 0
        assert got.to_dict() == want.to_dict()

    def test_codegen_runs_compiled_loop_when_quiescent(self):
        machine = _build()
        machine.run(scheduler="codegen")
        assert stats.compiles == 1
        assert cached_artifacts()[0].fn.__name__ == "__sma_codegen_loop__"


# ---------------------------------------------------------------------------
# registry and cluster routing
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_four_registered_schedulers(self):
        assert list(SMAMachine.SCHEDULERS) == [
            "naive", "joint-idle", "event-horizon", "codegen"
        ]
        for name, entry in SMAMachine.SCHEDULERS.items():
            assert callable(entry), name

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            _build().run(scheduler="jit")

    def test_cluster_codegen_runs_event_horizon(self):
        """A cluster asked for codegen runs its event-horizon loop and
        compiles nothing."""
        from tests.test_cluster_fast_forward import _build_cluster

        specs = [_kernel("daxpy", 16), _kernel("hydro", 16)]
        cluster = _build_cluster(specs, latency=8, depth=4, banks=8)
        cluster.run(scheduler="codegen")
        assert stats.compiles == 0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_codegen_show_prints_loop_source(self, capsys):
        from repro.cli import main

        assert main(["codegen", "show", "daxpy", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "__sma_codegen_loop__" in out
        assert "# specialized for access program" in out

    def test_codegen_list_reports_cache(self, capsys):
        from repro.cli import main

        artifact = compiled_loop_for(_build())
        assert main(["codegen", "list"]) == 0
        out = capsys.readouterr().out
        assert artifact.key[:12] in out and "compiles 1" in out
