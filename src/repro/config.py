"""Machine configuration dataclasses.

All timing parameters of the simulated machines live here so that the
experiment harness can sweep them.  The defaults model a plausible early-80s
memory system relative to a single-cycle processor:

* main memory access latency of 8 processor cycles,
* 8-way low-order interleaving with a bank busy time of 4 cycles
  (so unit-stride streams sustain one word per cycle, while stride-8
  streams collapse onto one bank and sustain one word per 4 cycles),
* architectural queues of 8 entries,
* up to 4 concurrently active structured-access descriptors.

Use :func:`dataclasses.replace` to derive swept variants, e.g.::

    cfg = replace(default_sma_config(), memory=replace(mem, latency=32))

Every config is canonical by construction: a numpy number passed for a
field is stored as the builtin ``int`` or ``float`` it equals, so
``repr(config)`` (part of every result-cache key) does not depend on
whether a sweep wrote ``256`` or ``np.int64(256)``; a field declared
``int`` refuses anything else, and a field declared ``float`` stores an
int as the float it equals and refuses anything else.  This module
imports no numpy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace

_BUILTIN = (int, float, str, bool, type(None))


def _builtin(value):
    """``value`` as the builtin ``int``/``float`` it equals if it is some
    other number (``np.int64(8)`` -> ``8``), else ``value`` itself."""
    if type(value) in _BUILTIN:
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return value


#: declared field types (source text: every module that calls
#: :func:`canonicalize` postpones its annotations) -> the one builtin
#: type a value of that field may have, and whether ``None`` is allowed
_TYPED = {
    "int": (int, False),
    "int | None": (int, True),
    "float": (float, False),
}

#: per dataclass, ``(field name, _TYPED entry or None)`` for each field,
#: built on first use
_FIELDS: dict[type, tuple[tuple[str, tuple | None], ...]] = {}


def canonicalize(obj, owner: str | None = None) -> None:
    """Store every number among the frozen dataclass ``obj``'s fields,
    and inside its tuple fields, as a builtin (see :func:`_builtin`),
    then check the fields declared ``int`` (or ``int | None``) or
    ``float``.  An ``int`` field refuses anything but an ``int`` (or
    ``None``) — a float, even ``8.0``, a bool or a string.  A ``float``
    field stores an ``int`` as the float it equals, so ``1`` and ``1.0``
    make one ``repr``, and refuses a bool or a string.  A refusal is a
    ``ValueError`` naming ``owner`` (default: the class name) and the
    field.

    Called first in the ``__post_init__`` of each config and of the
    harness's ``Job`` and ``BatchJob``, so no caller ever has to walk a
    config tree to canonicalize it.
    """
    plan = _FIELDS.get(type(obj))
    if plan is None:
        plan = _FIELDS[type(obj)] = tuple(
            (f.name, _TYPED.get(f.type)) for f in fields(obj)
        )
    # getattr per field, not vars(obj): reading __dict__ would make each
    # instance carry a dict object instead of inline attribute values
    for name, typed in plan:
        value = getattr(obj, name)
        if type(value) not in _BUILTIN:
            if type(value) is tuple:
                new = tuple(_builtin(v) for v in value)
            else:
                new = _builtin(value)
            if new is not value:
                object.__setattr__(obj, name, new)
                value = new
        if typed is None or type(value) is typed[0] or (
            value is None and typed[1]
        ):
            continue
        if typed[0] is float and type(value) is int:
            object.__setattr__(obj, name, float(value))
            continue
        raise ValueError(
            f"{owner or type(obj).__name__} {name} must be "
            f"{'an int' if typed[0] is int else 'a float'}, not {value!r}"
        )


@dataclass(frozen=True)
class MemoryConfig:
    """Parameters of the banked, pipelined main memory.

    Attributes
    ----------
    size:
        Number of 64-bit words of addressable storage.
    num_banks:
        Degree of low-order interleaving.  Bank of address ``a`` is
        ``a % num_banks``.
    latency:
        Cycles from request acceptance to data availability (loads) or
        commit (stores).
    bank_busy:
        Cycles a bank stays busy after accepting a request; a second
        request to the same bank within this window is a *bank conflict*
        and is rejected (the requester retries).
    accepts_per_cycle:
        Upper bound on requests the memory port accepts per cycle,
        independent of banking.
    """

    size: int = 1 << 16
    num_banks: int = 8
    latency: int = 8
    bank_busy: int = 4
    accepts_per_cycle: int = 1

    def __post_init__(self) -> None:
        canonicalize(self)
        if self.size <= 0 or self.num_banks <= 0:
            raise ValueError("size and num_banks must be positive")
        if self.latency < 1 or self.bank_busy < 1:
            raise ValueError("latency and bank_busy must be >= 1")
        if self.accepts_per_cycle < 1:
            raise ValueError("accepts_per_cycle must be >= 1")


@dataclass(frozen=True)
class QueueConfig:
    """Depths of the architectural FIFO queues coupling AP, EP and memory."""

    load_queue_depth: int = 8     # memory -> EP operand queues (LQ0..)
    store_data_depth: int = 8     # EP -> memory store-data queues (SDQ0..)
    store_addr_depth: int = 8     # AP -> memory store-address queue (SAQ)
    index_queue_depth: int = 8    # memory -> AP internal index queues (IQ0..)
    ep_to_ap_data_depth: int = 4  # EP -> AP data queue (EAQ)
    ep_to_ap_branch_depth: int = 4  # EP -> AP branch queue (EBQ)

    def __post_init__(self) -> None:
        canonicalize(self)
        for name in (
            "load_queue_depth",
            "store_data_depth",
            "store_addr_depth",
            "index_queue_depth",
            "ep_to_ap_data_depth",
            "ep_to_ap_branch_depth",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class CacheConfig:
    """Parameters of the baseline machine's set-associative data cache.

    The cache is a timing model layered over the flat backing store:
    write-back, write-allocate, LRU replacement.
    """

    size_words: int = 256
    line_words: int = 4
    associativity: int = 2
    hit_time: int = 1
    #: cycles to move one word of a line between memory and cache after the
    #: initial access latency has elapsed.
    transfer_cycles: int = 1

    def __post_init__(self) -> None:
        canonicalize(self)
        if self.line_words <= 0 or self.size_words <= 0:
            raise ValueError("cache sizes must be positive")
        if self.size_words % (self.line_words * self.associativity):
            raise ValueError(
                "size_words must be a multiple of line_words * associativity"
            )
        if self.hit_time < 1 or self.transfer_cycles < 0:
            raise ValueError("bad cache timing parameters")

    @property
    def num_sets(self) -> int:
        return self.size_words // (self.line_words * self.associativity)


@dataclass(frozen=True)
class PrefetchConfig:
    """Prefetcher knobs layered on a :class:`CacheConfig` (experiment
    R-T5; see :mod:`repro.memory.prefetch`)."""

    policy: str = "stride"  # "obl" | "stride"
    #: entries in the stride-detection history (stride policy only).
    table_size: int = 4
    #: lines fetched ahead per trigger.
    degree: int = 1
    #: cycles past its ready time after which an unclaimed prefetched
    #: line is dropped from the pending set (bounds ``_pending`` on
    #: irregular streams and feeds ``prefetch_accuracy``); ``None``
    #: picks ``max(64, 16 × memory_latency)`` at construction — generous
    #: enough that a streaming consumer a few lines behind never loses a
    #: useful prefetch, small enough to bound the pending set.
    stale_after: int | None = None

    def __post_init__(self) -> None:
        canonicalize(self)
        if self.policy not in ("obl", "stride"):
            raise ValueError(f"unknown prefetch policy {self.policy!r}")
        if self.table_size < 1 or self.degree < 1:
            raise ValueError("table_size and degree must be >= 1")
        if self.stale_after is not None and self.stale_after < 1:
            raise ValueError("stale_after must be >= 1 (or None for auto)")


@dataclass(frozen=True)
class SpeculationConfig:
    """Speculative access-processor parameters (LOD run-ahead).

    A non-``None`` :attr:`SMAConfig.speculation` lets the AP speculate
    past loss-of-decoupling stalls (``lod_eaq``/``lod_ebq``): instead of
    waiting for the EP to deliver a data-dependent address or branch
    outcome, a deterministic predictor supplies a value, the AP
    checkpoints its architectural state and runs ahead, and any memory
    traffic it issues is poison-tagged until the prediction resolves.
    A misprediction rolls the shadow state back, squashes the poisoned
    traffic, and charges ``rollback_penalty`` cycles to the
    ``misspeculation`` stall bucket.
    """

    #: probability in [0, 1] that any given prediction is correct.  The
    #: predictor is deterministic per (pc, episode, seed): the same run
    #: always predicts the same way.  ``0.0`` never speculates at all
    #: (bit-identical to a non-speculative machine, while keeping the
    #: config present); ``1.0`` is a perfect oracle.
    accuracy: float = 1.0
    #: maximum simultaneously outstanding speculative frames (nested
    #: speculation depth).  Swept by experiment R-F9.
    max_depth: int = 4
    #: recovery cycles charged to the ``misspeculation`` bucket after a
    #: rollback, before the AP may issue again.
    rollback_penalty: int = 2
    #: mixed into the deterministic prediction coin.
    seed: int = 0

    def __post_init__(self) -> None:
        canonicalize(self)
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.rollback_penalty < 0:
            raise ValueError("rollback_penalty must be >= 0")

    @property
    def enabled(self) -> bool:
        """Whether this configuration can ever open a speculative frame."""
        return self.accuracy > 0.0


@dataclass(frozen=True)
class SMAConfig:
    """Full configuration of the decoupled SMA machine."""

    memory: MemoryConfig = field(default_factory=MemoryConfig)
    queues: QueueConfig = field(default_factory=QueueConfig)
    #: number of structured-access descriptors that may be in flight.  The
    #: hardware analogue is one descriptor register per architectural queue,
    #: so the default matches the default queue complement (8 LQ + 4 SDQ +
    #: 4 IQ); a program that needs more concurrent streams than this
    #: deadlocks rather than degrades, so the compiler's stream count is
    #: validated against the queue counts instead.
    max_streams: int = 16
    #: stream-engine issue bandwidth (requests per cycle across descriptors).
    stream_issue_per_cycle: int = 1
    #: number of architectural load queues (LQ0..LQn-1) visible to the EP.
    num_load_queues: int = 8
    #: number of store-data queues (SDQ0..) and index queues (IQ0..).
    num_store_queues: int = 4
    num_index_queues: int = 4
    #: optional speculative AP mode (see :class:`SpeculationConfig`);
    #: ``None`` (the default) keeps the AP strictly non-speculative.
    speculation: SpeculationConfig | None = None

    def __post_init__(self) -> None:
        canonicalize(self)
        if self.max_streams < 1 or self.stream_issue_per_cycle < 1:
            raise ValueError("stream engine parameters must be >= 1")
        if min(self.num_load_queues, self.num_store_queues,
               self.num_index_queues) < 1:
            raise ValueError("queue counts must be >= 1")


@dataclass(frozen=True)
class ScalarConfig:
    """Configuration of the baseline in-order von Neumann machine."""

    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: optional data cache; ``None`` means loads go straight to banked memory.
    cache: CacheConfig | None = None
    #: optional hardware prefetcher layered on the cache (experiment R-T5).
    #: Requires ``cache`` to be set.
    prefetch: PrefetchConfig | None = None

    def __post_init__(self) -> None:
        canonicalize(self)
        if self.prefetch is not None and self.cache is None:
            raise ValueError("prefetch requires a cache configuration")


def default_sma_config(**overrides) -> SMAConfig:
    """Return the reference SMA configuration, with keyword overrides
    applied to the top level (e.g. ``default_sma_config(max_streams=8)``)."""
    return replace(SMAConfig(), **overrides) if overrides else SMAConfig()


def default_scalar_config(**overrides) -> ScalarConfig:
    """Return the reference scalar-baseline configuration."""
    return replace(ScalarConfig(), **overrides) if overrides else ScalarConfig()
