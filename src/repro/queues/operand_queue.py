"""Architectural FIFO queues with slot reservation.

The SMA queues must deliver memory values *in program order* even though the
banked memory can complete requests out of order (different banks, different
wait times).  The classic hardware solution is reservation: when the access
processor (or the stream engine) issues a load, it reserves the next slot of
the destination queue at issue time; the returning datum later *fills* that
slot.  The consumer can only pop the head slot once it is filled, so ordering
is preserved and queue capacity doubles as the bound on outstanding loads
per queue.

Values produced locally (EP results, AP store addresses) use the one-step
:meth:`OperandQueue.push`, which is reserve+fill combined.

Every queue keeps occupancy statistics.  Two accounting modes produce
bit-identical numbers:

* **per-cycle sampling** — :meth:`OperandQueue.sample` called once per
  simulated cycle (the reference path);
* **event-driven sampling** — the occupancy of a FIFO only changes on
  :meth:`reserve`/:meth:`pop`, so between two such events every per-cycle
  sample would have recorded the same value.  When a driver activates lazy
  mode (:meth:`begin_lazy_sampling` on the queue file) each mutation first
  *flushes* the span of cycles since the previous mutation in closed form.
  The event-horizon scheduler (see :mod:`repro.core.machine`) uses this to
  take occupancy accounting out of the per-cycle hot loop entirely.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..errors import QueueError


@dataclass(slots=True)
class _Slot:
    filled: bool = False
    value: Any = None
    #: speculative taint (PR 8): a poisoned slot was produced by the AP
    #: while running ahead of an unresolved prediction.  ``head_ready``
    #: (and its inlined copies in the ``*_fast`` step paths) hides
    #: poisoned heads from non-speculative consumers (EP, stream engine,
    #: store unit); commit clears the flag, rollback removes the slot.
    poisoned: bool = False


class LoadOccupancyAggregate:
    """Event-driven tracker of the *summed* load-queue occupancy.

    ``max_outstanding_loads`` is the maximum of the per-cycle **total**
    across all load queues, which is not derivable from per-queue maxima
    (max of a sum is not the sum of maxima).  Load queues report every
    occupancy change here while lazy sampling is active; a value only
    counts toward the maximum once it has survived to the end of a cycle,
    matching what per-cycle end-of-cycle sampling would have observed.
    """

    __slots__ = ("total", "max_seen", "_synced")

    def __init__(self, total: int, start_cycle: int):
        self.total = total
        self.max_seen = 0
        self._synced = start_cycle

    def change(self, now: int, delta: int) -> None:
        if now > self._synced:
            # the old total held for >= 1 full cycle, so per-cycle
            # sampling would have seen it
            if self.total > self.max_seen:
                self.max_seen = self.total
            self._synced = now
        self.total += delta

    def finish(self, end_cycle: int) -> None:
        if end_cycle > self._synced and self.total > self.max_seen:
            self.max_seen = self.total
        self._synced = end_cycle


@dataclass
class QueueStats:
    """Occupancy and traffic counters for one queue."""

    pushes: int = 0
    pops: int = 0
    #: cycles in which a consumer wanted the head but it was not ready.
    empty_stalls: int = 0
    #: cycles in which a producer wanted a slot but the queue was full.
    full_stalls: int = 0
    samples: int = 0
    occupancy_sum: int = 0
    occupancy_max: int = 0
    histogram: dict[int, int] = field(default_factory=dict)

    @property
    def mean_occupancy(self) -> float:
        return self.occupancy_sum / self.samples if self.samples else 0.0


class OperandQueue:
    """A bounded FIFO with the reserve/fill protocol described above."""

    __slots__ = (
        "name", "capacity", "_slots", "stats",
        "_lazy", "_clock", "_synced", "_agg", "_tap",
    )

    def __init__(self, name: str, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._slots: deque[_Slot] = deque()
        self.stats = QueueStats()
        # event-driven occupancy accounting (see module docstring): the
        # clock is a shared one-element list the driver advances each cycle
        self._lazy = False
        self._clock: list[int] | None = None
        self._synced = 0
        self._agg: LoadOccupancyAggregate | None = None
        #: optional pop recorder (speculation oracle pre-run): when set to
        #: a list, every popped value is appended to it.
        self._tap: list | None = None

    # -- event-driven occupancy accounting --------------------------------

    def _lazy_flush(self) -> None:
        """Account every cycle since the last occupancy change at the
        (constant) occupancy they ended with."""
        now = self._clock[0]
        span = now - self._synced
        if span > 0:
            n = len(self._slots)
            st = self.stats
            st.samples += span
            st.occupancy_sum += n * span
            if n > st.occupancy_max:
                st.occupancy_max = n
            h = st.histogram
            h[n] = h.get(n, 0) + span
            self._synced = now

    # -- producer side --------------------------------------------------

    def can_reserve(self) -> bool:
        """True if a new slot can be reserved (queue not full of
        reserved-or-filled slots)."""
        return len(self._slots) < self.capacity

    def reserve(self) -> _Slot:
        """Reserve the next slot; returns a token to pass to :meth:`fill`."""
        if not self.can_reserve():
            raise QueueError(f"{self.name}: reserve on full queue")
        return self.reserve_at(self._clock[0] if self._lazy else 0)

    def fill(self, token: _Slot, value: Any) -> None:
        """Deliver the value for a previously reserved slot."""
        if token.filled:
            raise QueueError(f"{self.name}: slot filled twice")
        token.filled = True
        token.value = value
        self.stats.pushes += 1

    def push(self, value: Any) -> _Slot:
        """Reserve and fill in one step (locally produced values).
        Returns the slot so a speculative producer can poison-tag it."""
        if not self.can_reserve():
            raise QueueError(f"{self.name}: reserve on full queue")
        return self.push_at(self._clock[0] if self._lazy else 0, value)

    def note_full_stall(self) -> None:
        """Record that a producer stalled on this queue this cycle."""
        self.stats.full_stalls += 1

    # -- one-call operations for the event-horizon fast paths -------------
    #
    # ``reserve_at``/``push_at``/``pop_at`` are :meth:`reserve`/
    # :meth:`push`/:meth:`pop` for a caller that has already checked
    # capacity (or head readiness) and knows the current cycle ``now``,
    # which in lazy mode equals the shared clock cell.  Each does the
    # lazy occupancy flush and the load-queue aggregate update inline, so
    # a fast step pays one call per queue operation; the checked methods
    # check, then call them.

    def reserve_at(self, now: int) -> _Slot:
        """Reserve the next slot at cycle ``now``; capacity is checked
        by the caller."""
        if self._lazy:
            span = now - self._synced
            if span > 0:
                n = len(self._slots)
                st = self.stats
                st.samples += span
                st.occupancy_sum += n * span
                if n > st.occupancy_max:
                    st.occupancy_max = n
                h = st.histogram
                h[n] = h.get(n, 0) + span
                self._synced = now
            agg = self._agg
            if agg is not None:
                if now > agg._synced:
                    if agg.total > agg.max_seen:
                        agg.max_seen = agg.total
                    agg._synced = now
                agg.total += 1
        slot = _Slot()
        self._slots.append(slot)
        return slot

    def push_at(self, now: int, value: Any) -> _Slot:
        """Reserve and fill a slot at cycle ``now`` (see
        :meth:`reserve_at`); returns the slot."""
        if self._lazy:
            span = now - self._synced
            if span > 0:
                n = len(self._slots)
                st = self.stats
                st.samples += span
                st.occupancy_sum += n * span
                if n > st.occupancy_max:
                    st.occupancy_max = n
                h = st.histogram
                h[n] = h.get(n, 0) + span
                self._synced = now
            agg = self._agg
            if agg is not None:
                if now > agg._synced:
                    if agg.total > agg.max_seen:
                        agg.max_seen = agg.total
                    agg._synced = now
                agg.total += 1
        slot = _Slot(True, value)
        self._slots.append(slot)
        self.stats.pushes += 1
        return slot

    # -- consumer side --------------------------------------------------

    def head_ready(self) -> bool:
        """True if the oldest slot exists, has been filled and is not
        speculatively poisoned (non-speculative consumers must not see
        run-ahead data before its prediction commits)."""
        return (
            bool(self._slots)
            and self._slots[0].filled
            and not self._slots[0].poisoned
        )

    def pop(self) -> Any:
        """Remove and return the head value; head must be ready."""
        if not self.head_ready():
            raise QueueError(f"{self.name}: pop on empty/unfilled head")
        return self.pop_at(self._clock[0] if self._lazy else 0)

    def pop_at(self, now: int) -> Any:
        """Remove and return the head value at cycle ``now`` (see
        :meth:`reserve_at`); the caller has checked the head is ready."""
        if self._lazy:
            span = now - self._synced
            if span > 0:
                n = len(self._slots)
                st = self.stats
                st.samples += span
                st.occupancy_sum += n * span
                if n > st.occupancy_max:
                    st.occupancy_max = n
                h = st.histogram
                h[n] = h.get(n, 0) + span
                self._synced = now
            agg = self._agg
            if agg is not None:
                if now > agg._synced:
                    if agg.total > agg.max_seen:
                        agg.max_seen = agg.total
                    agg._synced = now
                agg.total -= 1
        self.stats.pops += 1
        value = self._slots.popleft().value
        if self._tap is not None:
            self._tap.append(value)
        return value

    def peek(self) -> Any:
        """Return the head value without removing it; head must be ready."""
        if not self.head_ready():
            raise QueueError(f"{self.name}: peek on empty/unfilled head")
        return self._slots[0].value

    def note_empty_stall(self) -> None:
        """Record that a consumer stalled on this queue this cycle."""
        self.stats.empty_stalls += 1

    # -- speculative consumer side (PR 8) ---------------------------------
    #
    # The speculative AP needs slot *identities*, not just values: every
    # pop it performs while a prediction is pending must be undoable (the
    # slot goes back to the head on rollback), and every slot it reserves
    # must be removable.  These helpers mirror pop()'s occupancy
    # bookkeeping; stats are deliberately NOT undone on rollback — wrong-
    # path traffic is real work the machine did.

    def head_filled(self) -> bool:
        """True if the head slot is filled, poisoned or not (the
        speculative AP may consume its own run-ahead data)."""
        return bool(self._slots) and self._slots[0].filled

    def pop_slot(self) -> _Slot:
        """Pop and return the head *slot* (filled, poison allowed)."""
        if not self.head_filled():
            raise QueueError(f"{self.name}: pop_slot on empty/unfilled head")
        if self._lazy:
            if self._clock[0] > self._synced:
                self._lazy_flush()
            if self._agg is not None:
                self._agg.change(self._clock[0], -1)
        self.stats.pops += 1
        slot = self._slots.popleft()
        if self._tap is not None:
            self._tap.append(slot.value)
        return slot

    def unpop_slot(self, slot: _Slot) -> None:
        """Rollback inverse of :meth:`pop_slot`: restore ``slot`` to the
        head.  Call in reverse pop order.

        May transiently exceed ``capacity``: a producer can legitimately
        have refilled the queue after the (now-undone) speculative pop.
        Producers poll :meth:`can_reserve`, so the overflow only delays
        them — it never corrupts state."""
        if self._lazy:
            if self._clock[0] > self._synced:
                self._lazy_flush()
            if self._agg is not None:
                self._agg.change(self._clock[0], 1)
        self._slots.appendleft(slot)

    def remove_slot(self, slot: _Slot) -> None:
        """Squash a speculatively reserved slot, wherever it sits.
        Matches by identity — slots compare by value, and distinct slots
        can hold equal values."""
        for i, s in enumerate(self._slots):
            if s is slot:
                if self._lazy:
                    if self._clock[0] > self._synced:
                        self._lazy_flush()
                    if self._agg is not None:
                        self._agg.change(self._clock[0], -1)
                del self._slots[i]
                return
        raise QueueError(f"{self.name}: remove_slot on absent slot")

    # -- scheduling contract ---------------------------------------------

    def next_event_time(self, now: int) -> int | None:
        """Event-horizon contract (see ARCHITECTURE section 16): the
        earliest cycle at which this component's externally visible state
        can change *with every other component frozen*.

        A queue is entirely passive: its occupancy changes only when a
        producer reserves or a consumer pops, and fills arrive through
        memory completions already counted in the banked memory's own
        horizon.  On its own a queue never wakes anyone, hence ``None``.
        """
        return None

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        """Number of occupied (reserved or filled) slots."""
        return len(self._slots)

    @property
    def filled_count(self) -> int:
        return sum(1 for s in self._slots if s.filled)

    def is_empty(self) -> bool:
        return not self._slots

    def sample(self) -> None:
        """Record one occupancy sample (call once per simulated cycle)."""
        n = len(self._slots)
        st = self.stats
        st.samples += 1
        st.occupancy_sum += n
        if n > st.occupancy_max:
            st.occupancy_max = n
        st.histogram[n] = st.histogram.get(n, 0) + 1

    def __repr__(self) -> str:
        return (
            f"OperandQueue({self.name!r}, {len(self._slots)}/{self.capacity}"
            f" occupied, {self.filled_count} filled)"
        )
