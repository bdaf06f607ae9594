"""Banked, pipelined main-memory timing model.

The memory is ``num_banks``-way low-order interleaved.  A request to bank
``addr % num_banks`` is *accepted* only if that bank has been idle for
``bank_busy`` cycles since its last acceptance and the port has spare issue
bandwidth this cycle; otherwise the requester must retry (the rejection is
recorded as a bank conflict or port reject).  An accepted request completes
``latency`` cycles later: a load fills the queue slot its requester
reserved, stores are already visible.

Functional ordering model: the data effect of a request happens at *issue*
time — writes update the backing store immediately, reads capture the
current value and deliver it at completion.  Requests therefore take effect
in acceptance order, which is the order the processors issued them in; the
timing pipeline only delays observation, never reorders data.  This is the
standard conservative model for trace-level architecture simulation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..config import MemoryConfig
from .main_memory import MainMemory, as_address

if TYPE_CHECKING:
    from ..queues.operand_queue import OperandQueue, _Slot


@dataclass
class MemoryStats:
    """Traffic and contention counters for one banked memory."""

    reads: int = 0
    writes: int = 0
    bank_conflicts: int = 0
    port_rejects: int = 0
    busy_bank_cycles: int = 0
    #: load completions delivered (queue slots filled)
    completions: int = 0
    per_bank_accesses: list[int] = field(default_factory=list)

    def utilization(self, elapsed_cycles: int, num_banks: int) -> float:
        """Fraction of bank-cycles spent servicing requests."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.busy_bank_cycles / (elapsed_cycles * num_banks)


class BankedMemory:
    """Cycle-stepped interleaved memory front-end over a MainMemory."""

    def __init__(self, storage: MainMemory, config: MemoryConfig):
        self.storage = storage
        self.config = config
        self._bank_free_at = [0] * config.num_banks
        #: in-flight loads, a heap of completion entries
        #: ``(time, seq, queue, slot, value)``: at ``time`` the value
        #: read at issue fills ``slot`` of ``queue`` in place
        self._completions: list[tuple[int, int, OperandQueue, _Slot,
                                      Optional[float]]] = []
        self._seq = 0
        self._issues_at = (-1, 0)  # (cycle, count) for the port limit
        self.stats = MemoryStats(per_bank_accesses=[0] * config.num_banks)

    def register_metrics(self, registry, prefix: str = "memory") -> None:
        """Publish traffic/contention counters into a metrics registry."""
        from ..metrics.registry import register_stats

        register_stats(registry, prefix, self.stats)
        registry.register_histogram(
            f"{prefix}.per_bank_accesses",
            lambda s=self.stats: dict(enumerate(s.per_bank_accesses)),
        )

    # -- issue side ------------------------------------------------------

    def can_accept(self, addr, now: int) -> bool:
        """Would a request to ``addr`` be accepted this cycle?"""
        a = as_address(addr)
        bank = a % self.config.num_banks
        cycle, count = self._issues_at
        if cycle == now and count >= self.config.accepts_per_cycle:
            return False
        return self._bank_free_at[bank] <= now

    def try_issue(
        self,
        addr,
        now: int,
        *,
        is_write: bool = False,
        value: float | None = None,
        queue: OperandQueue | None = None,
        slot: _Slot | None = None,
    ) -> bool:
        """Attempt to issue one request; returns acceptance.

        On acceptance the functional effect is applied immediately (see
        module docstring).  A read given a destination ``queue`` and the
        ``slot`` reserved in it schedules a completion entry, and
        :meth:`tick` fills the slot with the value read once it reaches
        ``now + latency``.
        """
        a = as_address(addr)
        bank = a % self.config.num_banks
        cycle, count = self._issues_at
        if cycle == now and count >= self.config.accepts_per_cycle:
            self.stats.port_rejects += 1
            return False
        if self._bank_free_at[bank] > now:
            self.stats.bank_conflicts += 1
            return False
        # accept
        self._issues_at = (now, count + 1) if cycle == now else (now, 1)
        self._bank_free_at[bank] = now + self.config.bank_busy
        self.stats.busy_bank_cycles += self.config.bank_busy
        self.stats.per_bank_accesses[bank] += 1
        if is_write:
            self.stats.writes += 1
            self.storage.write(a, value)
            result: Optional[float] = None
        else:
            self.stats.reads += 1
            result = self.storage.read(a)
        if queue is not None:
            self._seq += 1
            heapq.heappush(
                self._completions,
                (now + self.config.latency, self._seq, queue, slot, result),
            )
        return True

    def bank_free_time(self, addr) -> int:
        """Cycle at which ``addr``'s bank next accepts a request."""
        return self._bank_free_at[as_address(addr) % self.config.num_banks]

    # -- completion side ---------------------------------------------------

    def tick(self, now: int) -> None:
        """Deliver every completion whose time has arrived (call once per
        cycle, before the processors step)."""
        while self._completions and self._completions[0][0] <= now:
            _, _, queue, slot, result = heapq.heappop(self._completions)
            self.stats.completions += 1
            queue.fill(slot, result)

    def squash_completions(self, slots) -> int:
        """Remove in-flight completions that would fill one of ``slots``
        (speculative rollback), matched by the identity of the slot each
        completion entry names; completions for other slots are
        untouched.  Returns the number of completions squashed.

        The heap is mutated in place, because the event-horizon loop
        holds it in a local across cycles."""
        if not self._completions:
            return 0
        ids = {id(s) for s in slots}
        keep = []
        removed = 0
        for entry in self._completions:
            if id(entry[3]) in ids:
                removed += 1
            else:
                keep.append(entry)
        if removed:
            heapq.heapify(keep)
            self._completions[:] = keep
        return removed

    def quiescent(self) -> bool:
        """True when no request is in flight."""
        return not self._completions

    def next_completion_time(self, now: int) -> int | None:
        """Cycle at which the earliest pending completion fires, or
        ``None`` when nothing is in flight.

        This is the memory's only *spontaneous* event: a completion fires
        regardless of what the processors do, delivering a value (or
        store acknowledgement) that can unblock a consumer.  Bank-free
        times, by contrast, only matter to a component actually waiting
        on that bank — the event-horizon scheduler therefore asks each
        waiting component for its bank horizon and asks the memory only
        for this completion clamp."""
        if not self._completions:
            return None
        t = self._completions[0][0]
        return t if t > now else now

