"""Banked, pipelined main-memory timing model.

The memory is ``num_banks``-way low-order interleaved.  A request to bank
``addr % num_banks`` is *accepted* only if that bank has been idle for
``bank_busy`` cycles since its last acceptance and the port has spare issue
bandwidth this cycle; otherwise the requester must retry (the rejection is
recorded as a bank conflict or port reject).  An accepted request completes
``latency`` cycles later: loads deliver their value through a callback
(normally filling a reserved queue slot), stores are already visible.

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
from typing import Callable, Optional

from ..config import FaultConfig, MemoryConfig
from .main_memory import MainMemory, as_address


@dataclass
class MemoryStats:
    """Traffic and contention counters for one banked memory."""

    reads: int = 0
    writes: int = 0
    bank_conflicts: int = 0
    port_rejects: int = 0
    busy_bank_cycles: int = 0
    #: completion callbacks fired (loads delivered / stores acknowledged)
    completions: int = 0
    per_bank_accesses: list[int] = field(default_factory=list)

    def utilization(self, elapsed_cycles: int, num_banks: int) -> float:
        """Fraction of bank-cycles spent servicing requests."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.busy_bank_cycles / (elapsed_cycles * num_banks)


class BankedMemory:
    """Cycle-stepped interleaved memory front-end over a MainMemory."""

    #: True on fault-injecting subclasses; the run loops consult this to
    #: avoid the event-horizon scheduler, whose inlined fast paths bypass
    #: the overridable ``can_accept``/``try_issue`` pair.
    fault_injection = False

    def __init__(self, storage: MainMemory, config: MemoryConfig):
        self.storage = storage
        self.config = config
        self._bank_free_at = [0] * config.num_banks
        self._completions: list[tuple[int, int, Callable, Optional[float]]] = []
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
        on_complete: Callable[[Optional[float]], None] | None = None,
    ) -> bool:
        """Attempt to issue one request; returns acceptance.

        On acceptance the functional effect is applied immediately (see
        module docstring); ``on_complete(read_value_or_None)`` fires when
        :meth:`tick` reaches ``now + latency``.
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
        if on_complete is not None:
            self._seq += 1
            heapq.heappush(
                self._completions,
                (now + self.config.latency, self._seq, on_complete, result),
            )
        return True

    def bank_free_time(self, addr) -> int:
        """Cycle at which ``addr``'s bank next accepts a request."""
        return self._bank_free_at[as_address(addr) % self.config.num_banks]

    # -- completion side ---------------------------------------------------

    def tick(self, now: int) -> None:
        """Fire every completion whose time has arrived (call once per
        cycle, before the processors step)."""
        while self._completions and self._completions[0][0] <= now:
            _, _, callback, result = heapq.heappop(self._completions)
            self.stats.completions += 1
            callback(result)

    def squash_completions(self, slots) -> int:
        """Remove in-flight completions that would fill one of ``slots``
        (speculative rollback, PR 8).  Load-completion callbacks carry
        their target slot as a bound default (the same encoding the
        checkpoint layer introspects), so matching is by slot identity;
        completions for other consumers are untouched.  Returns the
        number of completions squashed.

        The heap is mutated in place, because the event-horizon loop
        holds it in a local across cycles."""
        if not self._completions:
            return 0
        ids = {id(s) for s in slots}
        keep = []
        removed = 0
        for entry in self._completions:
            defaults = getattr(entry[2], "__defaults__", None) or ()
            if any(id(d) in ids for d in defaults):
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


class FaultyMemory(BankedMemory):
    """Banked memory with deterministic transient-fault injection.

    Two fault classes, both parameterized by :class:`FaultConfig`:

    * **transient rejects** — a hash over ``(address, cycle, seed)``
      rejects a fraction of requests.  The predicate is evaluated
      identically in :meth:`can_accept` and :meth:`try_issue`, so the
      reference components' paired ``can_accept``/``assert try_issue``
      protocol stays sound.  Requesters simply retry, so this perturbs
      timing only — functional results are unchanged.
    * **dropped completions** — the first ``drop_completions`` accepted
      loads have their in-flight completion silently discarded, leaving a
      reserved-but-never-filled queue slot.  A correct watchdog then
      reports a deadlock (``SimulationError``) instead of hanging.

    The event-horizon loop bypasses these overrides (it inlines memory
    acceptance, and its jumps skip cycles in which the predicate would
    change its verdict), so the run loops downgrade to ``naive``
    whenever :attr:`fault_injection` is set.
    """

    fault_injection = True

    def __init__(self, storage: MainMemory, config: MemoryConfig,
                 faults: FaultConfig):
        super().__init__(storage, config)
        self.faults = faults
        self.injected_rejects = 0
        self.dropped_completions = 0
        self._drop_budget = faults.drop_completions

    def _fault_reject(self, a: int, now: int) -> bool:
        """Deterministic per-(address, cycle) reject predicate."""
        p = self.faults.reject_prob
        if p <= 0.0:
            return False
        h = (a * 2654435761 + now * 40503 + self.faults.seed * 97) & 0xFFFFFFFF
        h ^= h >> 16
        h = (h * 0x45D9F3B) & 0xFFFFFFFF
        h ^= h >> 16
        return h / 2.0 ** 32 < p

    def can_accept(self, addr, now: int) -> bool:
        if self._fault_reject(as_address(addr), now):
            # counted here as well as in try_issue: protocol-following
            # requesters poll can_accept and never reach try_issue when
            # the fault fires (one poll per requester per cycle, so the
            # count tracks injected stall decisions)
            self.injected_rejects += 1
            return False
        return super().can_accept(addr, now)

    def try_issue(
        self,
        addr,
        now: int,
        *,
        is_write: bool = False,
        value: float | None = None,
        on_complete: Callable[[Optional[float]], None] | None = None,
    ) -> bool:
        if self._fault_reject(as_address(addr), now):
            self.injected_rejects += 1
            return False
        accepted = super().try_issue(
            addr, now, is_write=is_write, value=value, on_complete=on_complete
        )
        if accepted and on_complete is not None and self._drop_budget > 0:
            # Discard the completion just scheduled (seq == self._seq);
            # its reserved queue slot will never fill.
            for i, entry in enumerate(self._completions):
                if entry[1] == self._seq:
                    last = self._completions.pop()
                    if i < len(self._completions):
                        self._completions[i] = last
                    heapq.heapify(self._completions)
                    break
            self._drop_budget -= 1
            self.dropped_completions += 1
        return accepted
