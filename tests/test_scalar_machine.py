"""Scalar baseline: semantics and the blocking-load / cache timing models."""

import pytest

from repro.baseline import ScalarMachine
from repro.config import CacheConfig, MemoryConfig, ScalarConfig
from repro.errors import MemoryError_, SimulationError
from repro.isa import assemble


def run_program(src, config=None, setup=None):
    m = ScalarMachine(assemble(src), config or ScalarConfig())
    if setup:
        setup(m)
    return m, m.run()


class TestSemantics:
    def test_load_store(self):
        m, res = run_program("""
            mov r1, #40
            load r2, r1, #2
            add r2, r2, #1.5
            store r2, r1, #3
            halt
        """, setup=lambda m: m.memory.write(42, 2.0))
        assert m.memory.read(43) == 3.5
        assert res.loads == 1 and res.stores == 1

    def test_loop(self):
        m, _ = run_program("""
            mov r1, #10
            mov r2, #0
            t: add r2, r2, #3
            decbnz r1, t
            halt
        """)
        assert m.registers[2] == 30

    def test_branches(self):
        m, _ = run_program("""
            mov r1, #1
            bnez r1, yes
            mov r2, #-1
            yes: mov r3, #7
            halt
        """)
        assert m.registers[2] == 0 and m.registers[3] == 7

    def test_illegal_op(self):
        with pytest.raises(SimulationError, match="not a valid scalar"):
            ScalarMachine(assemble("streamld lq0, r1, #1, #4\nhalt"))

    def test_cycle_budget(self):
        m = ScalarMachine(assemble("t: jmp t\nhalt"))
        with pytest.raises(SimulationError, match="cycle budget"):
            m.run(max_cycles=100)
        assert (m.pc, m.cycle, m._stats["instructions"]) == (0, 100, 100)


def run_to_fault(src, config=None, setup=None):
    """Run ``src`` to its fault; returns the machine and the error."""
    m = ScalarMachine(assemble(src), config or ScalarConfig())
    if setup:
        setup(m)
    with pytest.raises(Exception) as info:
        m.run()
    return m, info.value


class TestFaultsStopAtTheFaultingInstruction:
    """Every run-time fault raises at the instruction that caused it,
    with ``pc`` on that instruction, ``cycle`` at the point it faulted,
    and the counters of everything that ran before it."""

    @pytest.mark.parametrize("instr,operand", [
        ("add r2, r1, lq0", "lq0"),
        ("load r2, lq0, #1", "lq0"),
        ("store r1, #4, lq1", "lq1"),
        ("bnez lq0, t", "lq0"),
    ])
    def test_unreadable_operand(self, instr, operand):
        m, err = run_to_fault(f"mov r1, #3\n{instr}\nt: halt")
        assert type(err) is SimulationError
        assert str(err) == f"scalar machine cannot read operand {operand}"
        assert (m.pc, m.cycle, m._stats["instructions"]) == (1, 1, 1)

    @pytest.mark.parametrize("instr", ["load r2, r1, #1", "store r1, r1, #1"])
    @pytest.mark.parametrize("cached", [False, True])
    def test_non_integral_address(self, instr, cached):
        cfg = ScalarConfig(cache=CacheConfig()) if cached else None
        m, err = run_to_fault(f"mov r1, #2.5\n{instr}\nhalt", cfg)
        assert type(err) is MemoryError_
        assert str(err) == "non-integral address 3.5"
        assert (m.pc, m.cycle) == (1, 1)
        assert m._stats["loads"] == m._stats["stores"] == 0

    def test_out_of_range_load_after_its_bank_wait(self):
        # the store leaves bank 0 busy until cycle 4, so the load of
        # 65536 (bank 0) waits 3 cycles and is accepted before its range
        # check fails
        m, err = run_to_fault("store r1, #8, #0\nload r2, #65536, #0\nhalt")
        assert type(err) is MemoryError_
        assert str(err) == "address 65536 out of range [0, 65536)"
        assert (m.pc, m.cycle) == (1, 4)
        assert m._stats["conflict_waits"] == 3
        assert (m.banked.stats.reads, m.banked.stats.writes) == (1, 1)

    def test_out_of_range_store(self):
        m, err = run_to_fault("store r1, #-12, #0\nhalt")
        assert type(err) is MemoryError_
        assert str(err) == "address -12 out of range [0, 65536)"
        assert (m.pc, m.cycle, m._stats["stores"]) == (0, 0, 1)
        assert m.banked.stats.writes == 1

    def test_out_of_range_cached_load_after_its_miss(self):
        m, err = run_to_fault("load r2, #-3, #0\nhalt",
                              ScalarConfig(cache=CacheConfig()))
        assert str(err) == "address -3 out of range [0, 65536)"
        assert m._stats["memory_stall_cycles"] > 0
        assert (m.pc, m.cycle) == (0, m._stats["memory_stall_cycles"])

    def test_running_off_the_end(self):
        m, err = run_to_fault("jmp 2\nhalt\nnop")
        assert type(err) is SimulationError
        assert str(err) == "ran off the end of program 'program'"
        assert (m.pc, m.cycle, m._stats["instructions"]) == (3, 2, 2)


class TestObserver:
    SRC = """
        mov r1, #40
        load r2, r1, #2
        add r2, r2, #1.5
        store r2, r1, #3
        halt
    """

    def _events(self, config):
        events = []

        def setup(m):
            m.memory.write(42, 2.0)
            m.memory.observer = lambda *event: events.append(event)

        run_program(self.SRC, config, setup)
        return events

    def test_uncached_load_is_read_at_issue_and_for_its_value(self):
        # one read: the value the load issues for is the value it gets
        assert self._events(ScalarConfig()) == [
            ("r", 42, 2.0), ("w", 43, 3.5),
        ]

    def test_cached_accesses_are_seen_once(self):
        assert self._events(ScalarConfig(cache=CacheConfig())) == [
            ("r", 42, 2.0), ("w", 43, 3.5),
        ]

    def test_cached_and_uncached_runs_report_equal_reads(self):
        from repro.harness.runner import _load_inputs
        from repro.kernels import get_kernel, lower_scalar
        from repro.verify import MemoryTracer

        kernel, inputs = get_kernel("hydro").instantiate(32)
        lowered = lower_scalar(kernel)
        counts = []
        for config in (ScalarConfig(), ScalarConfig(cache=CacheConfig())):
            m = ScalarMachine(lowered.program, config)
            _load_inputs(m, lowered.layout, kernel, inputs)
            tracer = MemoryTracer().install(m)
            res = m.run()
            counts.append((tracer.reads, res.loads))
        assert counts[0] == counts[1]
        assert counts[0][0] == counts[0][1] > 0

    def test_out_of_range_observed_load_faults_at_issue(self):
        m = ScalarMachine(assemble("mov r1, #70000\nload r2, r1, #0\nhalt"),
                          ScalarConfig())
        m.memory.observer = lambda *event: None
        with pytest.raises(MemoryError_):
            m.run()
        # at the load's issue: no latency charged for a read that failed
        assert (m.pc, m.cycle) == (1, 1)


class TestBlockingLoadTiming:
    def test_load_costs_latency(self):
        cfg = ScalarConfig(memory=MemoryConfig(latency=10, bank_busy=1))
        _, res_with = run_program("load r1, r2, #0\nhalt", cfg)
        _, res_without = run_program("mov r1, #0\nhalt", cfg)
        assert res_with.cycles - res_without.cycles == 10
        assert res_with.memory_stall_cycles == 10

    def test_store_does_not_block(self):
        cfg = ScalarConfig(memory=MemoryConfig(latency=10, bank_busy=1))
        _, res = run_program("store r1, r2, #0\nhalt", cfg)
        assert res.memory_stall_cycles == 0

    def test_bank_conflict_waits(self):
        # two stores to the same bank back-to-back: second waits busy time
        cfg = ScalarConfig(
            memory=MemoryConfig(latency=4, bank_busy=4, num_banks=8)
        )
        _, res = run_program("""
            store r1, #0, #0
            store r1, #8, #0
            halt
        """, cfg)
        assert res.bank_conflict_waits > 0


class TestCachedTiming:
    def test_cache_speeds_up_reuse(self):
        mem = MemoryConfig(latency=16, bank_busy=8)
        src = """
            mov r1, #32
            t: load r2, #100, #0
            decbnz r1, t
            halt
        """
        _, uncached = run_program(src, ScalarConfig(memory=mem))
        _, cached = run_program(
            src, ScalarConfig(memory=mem, cache=CacheConfig())
        )
        assert cached.cycles < uncached.cycles / 3
        assert cached.cache.hits == 31

    def test_writeback_flush_charged_at_halt(self):
        cfg = ScalarConfig(cache=CacheConfig())
        m1, dirty = run_program("store r1, #0, #0\nhalt", cfg)
        m2, clean = run_program("load r1, #0, #0\nhalt", cfg)
        assert dirty.cycles > clean.cycles  # flush of the dirty line

    def test_functional_result_identical_with_cache(self):
        src = """
            mov r1, #5
            mov r3, #100
            t: load r2, r3, #0
            add r2, r2, #1.0
            store r2, r3, #0
            add r3, r3, #1
            decbnz r1, t
            halt
        """
        def setup(m):
            m.load_array(100, [1.0, 2.0, 3.0, 4.0, 5.0])
        m1, _ = run_program(src, ScalarConfig(), setup=setup)
        m2, _ = run_program(
            src, ScalarConfig(cache=CacheConfig()), setup=setup
        )
        assert m1.dump_array(100, 5).tolist() == m2.dump_array(100, 5).tolist()


class TestSerialization:
    def test_to_dict_with_and_without_cache(self):
        import json

        _, plain = run_program("load r1, #0, #0\nhalt")
        payload = json.loads(json.dumps(plain.to_dict()))
        assert payload["loads"] == 1 and "cache_hits" not in payload
        _, cached = run_program(
            "load r1, #0, #0\nhalt", ScalarConfig(cache=CacheConfig())
        )
        payload = json.loads(json.dumps(cached.to_dict()))
        assert payload["cache_misses"] == 1
