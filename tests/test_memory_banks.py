"""BankedMemory timing: latency, bank conflicts, port limit, ordering."""

import pytest

from repro.config import MemoryConfig
from repro.memory import BankedMemory, MainMemory
from repro.queues import OperandQueue


def make(latency=4, banks=4, busy=2, accepts=1, size=256):
    cfg = MemoryConfig(
        size=size, num_banks=banks, latency=latency, bank_busy=busy,
        accepts_per_cycle=accepts,
    )
    return BankedMemory(MainMemory(size), cfg)


def reserved(count=1):
    """A load queue and ``count`` slots reserved in it."""
    queue = OperandQueue("lq0", 4)
    return queue, [queue.reserve() for _ in range(count)]


class TestLatency:
    def test_read_completes_after_latency(self):
        mem = make(latency=4)
        mem.storage.write(8, 7.5)
        queue, (slot,) = reserved()
        assert mem.try_issue(8, now=0, queue=queue, slot=slot)
        for t in range(4):
            mem.tick(t)
            assert not slot.filled
        mem.tick(4)
        assert slot.filled and slot.value == 7.5
        assert queue.pop() == 7.5

    def test_write_visible_immediately_functionally(self):
        mem = make()
        assert mem.try_issue(3, now=0, is_write=True, value=2.5)
        assert mem.storage.read(3) == 2.5

    def test_read_captures_value_at_issue(self):
        # a later write must not corrupt an in-flight read
        mem = make(latency=4, busy=1, accepts=2)
        mem.storage.write(0, 1.0)
        queue, (slot,) = reserved()
        assert mem.try_issue(0, now=0, queue=queue, slot=slot)
        mem.storage.write(0, 9.0)  # direct functional overwrite
        mem.tick(4)
        assert slot.value == 1.0


class TestBankConflicts:
    def test_same_bank_rejected_within_busy_window(self):
        mem = make(banks=4, busy=3, accepts=2)
        assert mem.try_issue(0, now=0)          # bank 0
        assert not mem.try_issue(4, now=0)      # bank 0 again -> conflict
        assert mem.stats.bank_conflicts == 1

    def test_different_bank_accepted_same_cycle(self):
        mem = make(banks=4, busy=3, accepts=2)
        assert mem.try_issue(0, now=0)
        assert mem.try_issue(1, now=0)

    def test_bank_frees_after_busy(self):
        mem = make(banks=4, busy=2)
        assert mem.try_issue(0, now=0)
        assert not mem.can_accept(0, 1)
        assert mem.can_accept(0, 2)

    def test_per_bank_accounting(self):
        mem = make(banks=2, busy=1, accepts=4)
        mem.try_issue(0, now=0)
        mem.try_issue(1, now=0)
        mem.try_issue(2, now=1)
        assert mem.stats.per_bank_accesses == [2, 1]


class TestPortLimit:
    def test_accepts_per_cycle(self):
        mem = make(banks=8, busy=1, accepts=1)
        assert mem.try_issue(0, now=0)
        assert not mem.try_issue(1, now=0)  # port saturated
        assert mem.stats.port_rejects == 1
        assert mem.try_issue(1, now=1)

    def test_can_accept_respects_port(self):
        mem = make(banks=8, busy=1, accepts=1)
        mem.try_issue(0, now=0)
        assert not mem.can_accept(1, 0)
        assert mem.can_accept(1, 1)


class TestStats:
    def test_counts(self):
        mem = make(accepts=4, busy=1)
        mem.try_issue(0, now=0)
        mem.try_issue(1, now=0, is_write=True, value=1.0)
        assert mem.stats.reads == 1
        assert mem.stats.writes == 1

    def test_utilization(self):
        mem = make(banks=2, busy=2, accepts=2)
        mem.try_issue(0, now=0)
        # one request occupies a bank for 2 cycles: 2 / (4 cycles * 2 banks)
        assert mem.stats.utilization(4, 2) == pytest.approx(0.25)

    def test_quiescent(self):
        mem = make(latency=2)
        queue, (slot,) = reserved()
        mem.try_issue(0, now=0, queue=queue, slot=slot)
        assert not mem.quiescent()
        mem.tick(2)
        assert mem.quiescent()


class TestOrdering:
    def test_completions_fire_in_time_order(self):
        mem = make(latency=3, banks=8, busy=1, accepts=2)
        queue, (a, b) = reserved(2)
        mem.try_issue(0, now=0, queue=queue, slot=a)
        mem.try_issue(1, now=1, queue=queue, slot=b)
        filled = []
        for t in range(6):
            mem.tick(t)
            filled.append((a.filled, b.filled))
        assert filled == [(False, False)] * 3 + [(True, False)] \
            + [(True, True)] * 2


class TestSquash:
    def test_squash_keeps_the_heap_in_place(self):
        """Drivers hold the completion heap in a local across cycles
        (the event-horizon loop, the stream engine's fast tick), so a
        squash must not rebind it: completions issued afterwards have
        to land in the list those drivers still hold."""
        mem = make(latency=4, banks=8, busy=1, accepts=2)
        queue, (doomed, kept, late) = reserved(3)
        mem.try_issue(0, now=0, queue=queue, slot=doomed)
        mem.try_issue(1, now=0, queue=queue, slot=kept)
        comps = mem._completions
        assert mem.squash_completions([doomed]) == 1
        assert mem._completions is comps
        mem.try_issue(2, now=1, queue=queue, slot=late)
        assert [entry[0] for entry in sorted(comps)] == [4, 5]
        for t in range(6):
            mem.tick(t)
        assert (doomed.filled, kept.filled, late.filled) == \
            (False, True, True)
        assert not comps

    def test_squash_removes_the_slots_completion(self):
        """A completion entry names the slot its load fills, so a squash
        of that slot must remove it, and only it."""
        mem = make(latency=4, banks=8, busy=1, accepts=2)
        queue, (slot, other) = reserved(2)
        mem.try_issue(0, now=0, queue=queue, slot=slot)
        mem.try_issue(1, now=0, queue=queue, slot=other)
        assert mem.squash_completions([slot]) == 1
        assert [entry[3] for entry in mem._completions] == [other]
