"""Execute processor: queue operands, stalls, legality validation."""

import pytest

from repro.config import SMAConfig
from repro.core import SMAMachine
from repro.errors import SimulationError
from repro.isa import assemble


def machine(ep_src, ap_src="halt"):
    return SMAMachine(assemble(ap_src, "ap"), assemble(ep_src, "ep"),
                      SMAConfig())


class TestALU:
    def test_register_arithmetic(self):
        m = machine("""
            mov x1, #2.0
            mov x2, #0.5
            div x3, x1, x2
            sqrt x4, x3
            halt
        """)
        m.run()
        assert m.ep.registers[3] == 4.0
        assert m.ep.registers[4] == 2.0

    def test_select(self):
        m = machine("""
            mov x1, #0.7
            cmplt x2, #0.5, x1
            sel x3, x2, #1.0, #2.0
            cmplt x4, x1, #0.5
            sel x5, x4, #1.0, #2.0
            halt
        """)
        m.run()
        assert m.ep.registers[3] == 1.0
        assert m.ep.registers[5] == 2.0

    def test_floor_mod(self):
        m = machine("""
            mov x1, #7.75
            mod x2, x1, #2.0
            floor x3, x2
            halt
        """)
        m.run()
        assert m.ep.registers[2] == 1.75
        assert m.ep.registers[3] == 1.0

    def test_min_max_abs_neg(self):
        m = machine("""
            mov x1, #-3.0
            abs x2, x1
            neg x3, x2
            min x4, x2, x3
            max x5, x2, x3
            halt
        """)
        m.run()
        assert m.ep.registers[2] == 3.0
        assert m.ep.registers[3] == -3.0
        assert m.ep.registers[4] == -3.0
        assert m.ep.registers[5] == 3.0

    def test_div_by_zero_raises(self):
        m = machine("""
            mov x1, #1.0
            div x2, x1, #0.0
            halt
        """)
        with pytest.raises(ZeroDivisionError):
            m.run()


class TestQueueOperands:
    def test_pop_from_load_queue(self):
        m = machine("""
            add x1, lq0, lq1
            halt
        """, """
            ldq lq0, #10, #0
            ldq lq1, #11, #0
            halt
        """)
        m.memory.write(10, 1.5)
        m.memory.write(11, 2.0)
        m.run()
        assert m.ep.registers[1] == 3.5

    def test_push_to_sdq_blocks_when_full(self):
        # no store drains sdq0: EP fills it then stalls forever -> deadlock
        m = machine("""
            mov x1, #20
            t: mov sdq0, #1.0
            decbnz x1, t
            halt
        """)
        with pytest.raises(SimulationError, match="deadlock"):
            m.run(deadlock_window=200)
        assert m.ep.stats.stall_cycles.get("q_full", 0) > 0

    def test_empty_queue_stall_recorded(self):
        m = machine("""
            mov x1, lq0
            halt
        """, """
            mov a1, #30
            mov a2, #1
            t: add a1, a1, #0
            decbnz a2, t
            ldq lq0, a1, #0
            halt
        """)
        m.run()
        assert m.ep.stats.stall_cycles.get("lq_empty", 0) > 0


class TestValidation:
    def test_memory_ops_rejected(self):
        with pytest.raises(SimulationError, match="not a valid execute"):
            machine("ldq lq0, x1, #0\nhalt")

    def test_pop_of_non_load_queue_rejected(self):
        with pytest.raises(SimulationError, match="only pop load queues"):
            machine("mov x1, saq\nhalt")

    def test_push_to_load_queue_rejected(self):
        with pytest.raises(SimulationError, match="read-only"):
            machine("mov lq0, x1\nhalt")

    def test_same_queue_twice_rejected(self):
        with pytest.raises(SimulationError, match="twice"):
            machine("add x1, lq0, lq0\nhalt")

    def test_push_to_eaq_and_ebq_allowed(self):
        m = machine("""
            mov eaq, #5
            cmplt ebq, #1.0, #2.0
            halt
        """, """
            fromq a1, eaq
            bqnz done
            done: halt
        """)
        m.run()
        assert m.ap.registers[1] == 5
