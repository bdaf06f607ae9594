"""Structured-access descriptors and the stream engine.

This is the architectural heart of the SMA proposal: instead of computing
and issuing every operand address itself, the access processor hands the
memory system a *descriptor* of a whole structured access — ``(base,
stride, count)`` for dense streams, or an index-queue-driven pattern for
gather/scatter — with a single instruction.  The **stream engine** then
autonomously walks the descriptor, issuing one memory request per cycle
(subject to queue space, bank conflicts and port bandwidth) while the AP
continues executing.  This is what lets a one-instruction loop body sustain
one operand per cycle from an 8-cycle-latency memory.

Four descriptor kinds:

``LOAD``     for i in count: pop M[base + i*stride] into the target queue
``STORE``    for i in count: M[base + i*stride] = pop(data queue)
``GATHER``   for i in count: M[base + pop(index queue)] into target queue
``SCATTER``  for i in count: M[base + pop(index queue)] = pop(data queue)

Loads reserve their destination-queue slot at issue so values arrive in
stream order regardless of bank timing (see
:mod:`repro.queues.operand_queue`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from heapq import heappush

from ..errors import SimulationError
from ..memory.banks import BankedMemory
from ..memory.main_memory import as_address
from ..queues import OperandQueue


class StreamKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    GATHER = "gather"
    SCATTER = "scatter"


@dataclass(slots=True)
class StreamDescriptor:
    """One in-flight structured access."""

    kind: StreamKind
    base: int
    count: int
    stride: int = 1
    #: destination queue for LOAD / GATHER values.
    target: OperandQueue | None = None
    #: source of store data for STORE / SCATTER.
    data_queue: OperandQueue | None = None
    #: source of indices for GATHER / SCATTER.
    index_queue: OperandQueue | None = None
    issued: int = 0
    #: role flags derived from ``kind``, resolved once so the per-cycle
    #: issue paths branch on plain bools instead of enum membership
    produces: bool = field(init=False, repr=False, default=False)
    indexed: bool = field(init=False, repr=False, default=False)

    def __post_init__(self) -> None:
        if self.count < 0:
            raise SimulationError(f"negative stream count {self.count}")
        self.produces = self.kind in (StreamKind.LOAD, StreamKind.GATHER)
        self.indexed = self.kind in (StreamKind.GATHER, StreamKind.SCATTER)
        if self.produces:
            if self.target is None:
                raise SimulationError(f"{self.kind.value} stream needs a target queue")
        else:
            if self.data_queue is None:
                raise SimulationError(f"{self.kind.value} stream needs a data queue")
        if self.indexed:
            if self.index_queue is None:
                raise SimulationError(f"{self.kind.value} stream needs an index queue")

    @property
    def done(self) -> bool:
        return self.issued >= self.count

    def next_address(self) -> int | None:
        """Address of the next request, or None if it needs an index that
        has not arrived yet."""
        if self.kind in (StreamKind.LOAD, StreamKind.STORE):
            return self.base + self.issued * self.stride
        assert self.index_queue is not None
        if not self.index_queue.head_ready():
            return None
        return self.base + as_address(self.index_queue.peek())


@dataclass
class StreamEngineStats:
    streams_started: int = 0
    requests_issued: int = 0
    #: cycles in which at least one descriptor was live but nothing issued.
    blocked_cycles: int = 0
    max_live_streams: int = 0


class StreamEngine:
    """Round-robin issue across up to ``max_streams`` live descriptors."""

    __slots__ = (
        "memory", "max_streams", "issue_per_cycle", "_streams", "_rr",
        "stats", "_bank_free", "_nbanks", "_accepts", "_bank_busy",
        "_latency",
    )

    def __init__(
        self,
        memory: BankedMemory,
        max_streams: int,
        issue_per_cycle: int = 1,
    ):
        self.memory = memory
        self.max_streams = max_streams
        self.issue_per_cycle = issue_per_cycle
        self._streams: list[StreamDescriptor] = []
        self._rr = 0
        self.stats = StreamEngineStats()
        # memory-model constants for tick_fast; the bank-free list is
        # stable for the machine's lifetime (BankedMemory mutates it in
        # place)
        config = memory.config
        self._bank_free = memory._bank_free_at
        self._nbanks = config.num_banks
        self._accepts = config.accepts_per_cycle
        self._bank_busy = config.bank_busy
        self._latency = config.latency

    def has_free_slot(self) -> bool:
        return len(self._streams) < self.max_streams

    def start(self, descriptor: StreamDescriptor) -> None:
        """Activate a descriptor (AP calls this when executing a stream
        instruction); requires a free slot."""
        if not self.has_free_slot():
            raise SimulationError("stream engine slots exhausted")
        if descriptor.count > 0:
            self._streams.append(descriptor)
            self.stats.streams_started += 1
            self.stats.max_live_streams = max(
                self.stats.max_live_streams, len(self._streams)
            )

    def idle(self) -> bool:
        return not self._streams

    def queue_roles_in_use(self) -> tuple[set[OperandQueue], set[OperandQueue]]:
        """``(produced, consumed)`` queues across live descriptors.

        Two live streams must never *produce into* the same queue (their
        values would interleave and FIFO order would no longer equal
        program order) nor *consume from* the same queue.  A
        producer/consumer pair on one queue is legal — that is exactly how
        gathers chain (``streamld`` produces indices into an IQ that the
        ``gather`` descriptor consumes).  The access processor checks these
        sets, role-matched, before starting a stream.
        """
        produced: set[OperandQueue] = set()
        consumed: set[OperandQueue] = set()
        for d in self._streams:
            if d.target is not None:
                produced.add(d.target)
            if d.data_queue is not None:
                consumed.add(d.data_queue)
            if d.index_queue is not None:
                consumed.add(d.index_queue)
        return produced, consumed

    @property
    def live_streams(self) -> int:
        return len(self._streams)

    def tick(self, now: int) -> int:
        """Issue up to ``issue_per_cycle`` requests; returns issue count."""
        if not self._streams:
            return 0
        issued = 0
        attempts = 0
        n = len(self._streams)
        # Round-robin over descriptors: each gets one attempt per cycle.
        while issued < self.issue_per_cycle and attempts < n:
            desc = self._streams[self._rr % len(self._streams)]
            if self._try_issue(desc, now):
                issued += 1
                if desc.done:
                    self._streams.remove(desc)
                    if not self._streams:
                        break
                    continue  # keep rr pointing at the next stream
            self._rr = (self._rr + 1) % max(len(self._streams), 1)
            attempts += 1
        if issued == 0:
            self.stats.blocked_cycles += 1
        else:
            self.stats.requests_issued += issued
        return issued

    def _try_issue(self, desc: StreamDescriptor, now: int) -> bool:
        addr = desc.next_address()
        if addr is None:
            return False  # waiting for an index
        if desc.kind in (StreamKind.LOAD, StreamKind.GATHER):
            target = desc.target
            assert target is not None
            if not target.can_reserve():
                target.note_full_stall()
                return False
            if not self.memory.can_accept(addr, now):
                return False
            token = target.reserve()
            accepted = self.memory.try_issue(
                addr, now, queue=target, slot=token
            )
            assert accepted, "can_accept and try_issue disagreed"
        else:
            data_queue = desc.data_queue
            assert data_queue is not None
            if not data_queue.head_ready():
                data_queue.note_empty_stall()
                return False
            if not self.memory.can_accept(addr, now):
                return False
            value = data_queue.peek()
            accepted = self.memory.try_issue(
                addr, now, is_write=True, value=value
            )
            assert accepted
            data_queue.pop()
        if desc.kind in (StreamKind.GATHER, StreamKind.SCATTER):
            assert desc.index_queue is not None
            desc.index_queue.pop()
        desc.issued += 1
        return True

    # -- event-horizon fast path ----------------------------------------

    def tick_fast(self, now: int) -> int:
        """Hand-inlined twin of :meth:`tick` for the event-horizon
        scheduler's hot loop.

        Must stay behaviorally identical to ``tick`` + ``_try_issue`` —
        same issue order, same stall notes, same stats, same round-robin
        pointer — with the per-attempt method calls (``next_address``,
        ``can_reserve``, ``head_ready``, ``can_accept``) flattened into
        local deque and list accesses; like ``head_ready``, it treats a
        poisoned index or data head as not ready.  An attempt does only
        what its outcome needs: a dense stream's address is computed
        once its queue check passes, and the memory model is read only
        by an attempt that reaches the bank check.  The Hypothesis
        equivalence suite (``tests/test_event_horizon.py``) holds the two
        paths together.
        """
        streams = self._streams
        if not streams:
            return 0
        rr = self._rr
        issued = 0
        attempts = 0
        # ``live`` tracks len(streams); ``n``, the attempt bound, is the
        # count at the start of the cycle, as in tick()
        n = live = len(streams)
        while issued < self.issue_per_cycle and attempts < n:
            desc = streams[rr % live]
            ok = False
            indexed = desc.indexed
            if indexed:
                # head_ready(), inlined: a poisoned index is not ready
                islots = desc.index_queue._slots
                if not islots or not islots[0].filled or islots[0].poisoned:
                    rr = (rr + 1) % live
                    attempts += 1
                    continue
                # converted before the queue check, as next_address()
                # does, so a malformed index raises whatever the queue
                # holds
                offset = as_address(islots[0].value)
            if desc.produces:
                target = desc.target
                if len(target._slots) >= target.capacity:
                    target.stats.full_stalls += 1
                else:
                    addr = desc.base + (
                        offset if indexed else desc.issued * desc.stride
                    )
                    memory = self.memory
                    cyc, cnt = memory._issues_at
                    bank = addr % self._nbanks
                    if (cyc != now or cnt < self._accepts) and \
                            self._bank_free[bank] <= now:
                        # reserve, then the accept side of
                        # BankedMemory.try_issue (whose port/bank checks
                        # just passed), in the reference order:
                        # reserve, bookkeeping, read, completion
                        token = target.reserve_at(now)
                        memory._issues_at = (
                            (now, cnt + 1) if cyc == now else (now, 1)
                        )
                        bank_busy = self._bank_busy
                        self._bank_free[bank] = now + bank_busy
                        mstats = memory.stats
                        mstats.busy_bank_cycles += bank_busy
                        mstats.per_bank_accesses[bank] += 1
                        mstats.reads += 1
                        storage = memory.storage
                        if storage.observer is None and \
                                0 <= addr < storage.size:
                            result = float(storage._words[addr])
                        else:
                            # observer hook or out-of-range fault
                            result = storage.read(addr)
                        memory._seq += 1
                        heappush(memory._completions, (
                            now + self._latency, memory._seq, target,
                            token, result,
                        ))
                        ok = True
            else:
                data_queue = desc.data_queue
                dslots = data_queue._slots
                if not dslots or not dslots[0].filled or dslots[0].poisoned:
                    data_queue.stats.empty_stalls += 1
                else:
                    addr = desc.base + (
                        offset if indexed else desc.issued * desc.stride
                    )
                    memory = self.memory
                    cyc, cnt = memory._issues_at
                    bank = addr % self._nbanks
                    if (cyc != now or cnt < self._accepts) and \
                            self._bank_free[bank] <= now:
                        memory._issues_at = (
                            (now, cnt + 1) if cyc == now else (now, 1)
                        )
                        bank_busy = self._bank_busy
                        self._bank_free[bank] = now + bank_busy
                        mstats = memory.stats
                        mstats.busy_bank_cycles += bank_busy
                        mstats.per_bank_accesses[bank] += 1
                        mstats.writes += 1
                        storage = memory.storage
                        if storage.observer is None and \
                                0 <= addr < storage.size:
                            storage._words[addr] = dslots[0].value
                        else:
                            storage.write(addr, dslots[0].value)
                        data_queue.pop_at(now)
                        ok = True
            if ok:
                if indexed:
                    desc.index_queue.pop_at(now)
                desc.issued += 1
                issued += 1
                if desc.issued >= desc.count:
                    streams.remove(desc)
                    live -= 1
                    if not live:
                        break
                    continue  # keep rr pointing at the next stream
            rr = (rr + 1) % live
            attempts += 1
        self._rr = rr
        if issued == 0:
            self.stats.blocked_cycles += 1
        else:
            self.stats.requests_issued += issued
        return issued

    def next_event_time(self, now: int) -> int | None:
        """Event-horizon contract: earliest cycle the engine can issue a
        request with every other component frozen.

        Per live descriptor: a missing index, a full target queue or an
        empty data queue can only be resolved by *another* component
        (memory completion, EP pop/push, store unit), so such a
        descriptor contributes nothing; a descriptor blocked only by its
        target bank's busy window wakes when the bank frees.  The
        per-cycle port limit resets every cycle and is ignored
        (conservative: at worst this returns ``now`` and the scheduler
        does not jump).  Unlike ``tick``/``_try_issue`` this probe is
        pure — it never records stall notes.
        """
        streams = self._streams
        if not streams:
            return None
        bank_free = self.memory._bank_free_at
        nbanks = self.memory.config.num_banks
        best = None
        for desc in streams:
            if desc.indexed:
                islots = desc.index_queue._slots
                if not islots or not islots[0].filled:
                    continue  # waiting on an index producer
                idx = islots[0].value
                i = int(idx)
                if i != idx:
                    # malformed index: force a live step so the reference
                    # issue path raises its usual diagnostic
                    return now
                addr = desc.base + i
            else:
                addr = desc.base + desc.issued * desc.stride
            if desc.produces:
                target = desc.target
                if len(target._slots) >= target.capacity:
                    continue  # waiting on the consumer
            else:
                dslots = desc.data_queue._slots
                if not dslots or not dslots[0].filled:
                    continue  # waiting on the data producer
            t = bank_free[addr % nbanks]
            if t <= now:
                return now
            if best is None or t < best:
                best = t
        return best
