"""Store pairing unit.

Non-stream stores take the classic DAE path: the access processor pushes
``(address, data-queue-index)`` pairs into the store-address queue (SAQ)
with ``staddr``, and the execute processor pushes the matching values into
the named store-data queue in the same program order.  The store unit
marries the two heads and issues one write per cycle when both are ready
and the memory accepts it.

Stream stores (``streamst``/``scatter``) bypass the SAQ entirely — their
addresses come from the descriptor — but draw from the same store-data
queues, so a program must not interleave stream and SAQ stores on one data
queue (the code generators allocate disjoint queues).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.banks import BankedMemory
from ..queues import QueueFile


@dataclass
class StoreUnitStats:
    stores_issued: int = 0
    #: cycles an address waited because its data had not been computed.
    data_wait_cycles: int = 0
    #: cycles a ready pair waited on the memory port / bank.
    memory_wait_cycles: int = 0


class StoreUnit:
    """Pairs SAQ addresses with store-data values; one write per cycle."""

    __slots__ = ("queues", "memory", "stats")

    def __init__(self, queues: QueueFile, memory: BankedMemory):
        self.queues = queues
        self.memory = memory
        self.stats = StoreUnitStats()

    def tick(self, now: int) -> bool:
        """Try to issue one paired store; returns True if one was issued."""
        saq = self.queues.store_addr
        if not saq.head_ready():
            return False
        addr, data_queue_index = saq.peek()
        data_queue = self.queues.store_data[data_queue_index]
        if not data_queue.head_ready():
            self.stats.data_wait_cycles += 1
            data_queue.note_empty_stall()
            return False
        if not self.memory.can_accept(addr, now):
            self.stats.memory_wait_cycles += 1
            return False
        accepted = self.memory.try_issue(
            addr, now, is_write=True, value=data_queue.peek()
        )
        assert accepted
        saq.pop()
        data_queue.pop()
        self.stats.stores_issued += 1
        return True

    def tick_fast(self, now: int) -> bool:
        """Hand-inlined twin of :meth:`tick` for the event-horizon
        scheduler's hot loop: the queue-head probes (poisoned heads not
        ready, as in ``head_ready``), the memory port/bank check and the
        accept bookkeeping of ``BankedMemory.try_issue`` are flattened
        into local accesses.
        Must stay behaviorally identical to ``tick`` (same stall notes,
        same stats, same issue decisions); the equivalence suite in
        ``tests/test_event_horizon.py`` holds the two together."""
        queues = self.queues
        saq = queues.store_addr
        sslots = saq._slots
        # head_ready(), inlined: a poisoned head is not ready
        if not sslots or not sslots[0].filled or sslots[0].poisoned:
            return False
        addr, data_queue_index = sslots[0].value
        data_queue = queues.store_data[data_queue_index]
        dslots = data_queue._slots
        if not dslots or not dslots[0].filled or dslots[0].poisoned:
            self.stats.data_wait_cycles += 1
            data_queue.stats.empty_stalls += 1
            return False
        memory = self.memory
        config = memory.config
        bank = addr % config.num_banks
        cyc, cnt = memory._issues_at
        if (cyc == now and cnt >= config.accepts_per_cycle) or \
                memory._bank_free_at[bank] > now:
            self.stats.memory_wait_cycles += 1
            return False
        # accept (mirrors BankedMemory.try_issue with the checks above)
        memory._issues_at = (now, cnt + 1) if cyc == now else (now, 1)
        memory._bank_free_at[bank] = now + config.bank_busy
        mstats = memory.stats
        mstats.busy_bank_cycles += config.bank_busy
        mstats.per_bank_accesses[bank] += 1
        mstats.writes += 1
        storage = memory.storage
        if storage.observer is None and 0 <= addr < storage.size:
            storage._words[addr] = dslots[0].value
        else:
            storage.write(addr, dslots[0].value)
        saq.pop_at(now)
        data_queue.pop_at(now)
        self.stats.stores_issued += 1
        return True

    def pending(self) -> bool:
        """True while addressed stores are waiting to be paired."""
        return not self.queues.store_addr.is_empty()

    def next_event_time(self, now: int) -> int | None:
        """Event-horizon contract: earliest cycle this unit can issue a
        store with every other component frozen.

        ``None`` while either half of the pair is missing — only another
        component (AP pushing an address, EP pushing data) can change
        that.  With a ready pair the only self-resolving obstacle is the
        target bank's busy window.  The per-cycle port limit is ignored:
        it resets every cycle, so it can delay the store only within the
        current cycle, and returning ``now`` then is conservative (the
        scheduler simply does not jump).
        """
        saq = self.queues.store_addr
        if not saq.head_ready():
            return None
        addr, data_queue_index = saq.peek()
        if not self.queues.store_data[data_queue_index].head_ready():
            return None
        t = self.memory.bank_free_time(addr)
        return t if t > now else now
