"""Stride-prefetching data cache for the scalar baseline.

The SMA's structured access descriptors are, in effect, *exact* software
prefetching.  The research line this paper fed into asked: how close can a
conventional cache get with *speculative* hardware prefetching?  This
module supplies the comparator for experiment R-T5: the baseline's data
cache extended with either of the two classic hardware prefetch policies:

``obl``
    one-block lookahead (tagged prefetch-on-miss): a demand miss on line
    *L* also requests line *L+1*.

``stride``
    a reference prediction table (RPT) keyed by the load/store
    instruction's PC: each table entry tracks the last address and last
    delta observed by that instruction; once the delta repeats (a
    *confirmed* stride), the line ``stride × line_words`` words ahead is
    requested on every access.  Keying by PC is what lets the predictor
    survive multiple interleaved streams — exactly the structure a daxpy
    loop presents.

Timing model: a prefetch overlaps with processor execution — it costs the
requester nothing up front, and the line becomes available one full miss
latency after the triggering access completes.  A demand access that hits
a *pending* prefetched line waits only for its remaining flight time
(partial coverage), which is exactly the behaviour that makes prefetching
close part — but not all — of the gap to a decoupled machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CacheConfig, PrefetchConfig
from .cache import CacheStats, DataCache
from .main_memory import as_address


@dataclass
class PrefetchStats(CacheStats):
    prefetches_issued: int = 0
    #: demand accesses fully served by a completed prefetch.
    prefetch_hits: int = 0
    #: demand accesses that caught a prefetch still in flight.
    prefetch_partial_hits: int = 0
    #: prefetched lines never claimed by a demand access (retired from
    #: the pending set after going stale, or left over at flush).
    prefetches_stale: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of would-be misses removed or shortened by prefetch."""
        covered = self.prefetch_hits + self.prefetch_partial_hits
        total = self.misses + covered
        return covered / total if total else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of issued prefetches a demand access actually used."""
        used = self.prefetch_hits + self.prefetch_partial_hits
        return used / self.prefetches_issued if self.prefetches_issued else 0.0


class PrefetchingCache(DataCache):
    """A :class:`DataCache` with OBL / stride hardware prefetch."""

    def __init__(
        self,
        config: CacheConfig,
        memory_latency: int,
        prefetch: PrefetchConfig | None = None,
    ):
        super().__init__(config, memory_latency)
        self.prefetch_config = prefetch or PrefetchConfig()
        self.stats = PrefetchStats()
        #: line tag -> cycle the prefetched line becomes usable
        #: (insertion order tracks ready order: ready times are monotone
        #: in the access clock, which is what lets _retire_stale sweep
        #: only the front)
        self._pending: dict[int, int] = {}
        #: reference prediction table: pc -> (last_addr, stride, confirmed)
        self._rpt: dict[int, tuple[int, int, bool]] = {}
        #: write-back bandwidth owed by dirty victims that prefetch fills
        #: evicted; settled on the next demand miss (see _install)
        self._deferred_writeback_cycles = 0
        self._stale_after = (
            self.prefetch_config.stale_after
            if self.prefetch_config.stale_after is not None
            else max(64, 16 * memory_latency)
        )

    # -- internals -----------------------------------------------------

    def _install(self, line_tag: int, now: int) -> None:
        """Place a line into its set (prefetch fill: clean, LRU-fresh)."""
        set_index = line_tag % self.config.num_sets
        cache_set = self._sets[set_index]
        if line_tag in cache_set:
            return
        if len(cache_set) >= self.config.associativity:
            victim_tag = min(cache_set, key=lambda t: cache_set[t].last_used)
            victim = cache_set.pop(victim_tag)
            if victim.dirty:
                # a prefetch fill costs the requester nothing up front,
                # so the victim's write-back bandwidth is owed as debt
                # and charged to the next demand miss (any remainder is
                # settled at flush_cycles) — the bus still moved the line
                self.stats.writebacks += 1
                self._deferred_writeback_cycles += (
                    self.config.line_words * self.config.transfer_cycles
                )
        from .cache import _Line  # shared line record

        cache_set[line_tag] = _Line(line_tag, self._tick)

    def _request_lines(self, line_tags, ready_base: int) -> None:
        for target in line_tags:
            if target < 0:
                continue
            set_index = target % self.config.num_sets
            if target in self._sets[set_index] or target in self._pending:
                continue
            self._pending[target] = ready_base + self.memory_latency
            self.stats.prefetches_issued += 1

    def _train_rpt(self, pc: int, addr: int, ready_base: int) -> None:
        """Stride policy: update the PC-indexed reference prediction table
        (trained on *every* access, hit or miss) and request the line one
        confirmed stride step ahead."""
        cfg = self.prefetch_config
        entry = self._rpt.pop(pc, None)
        if entry is None:
            if len(self._rpt) >= cfg.table_size:
                # evict the oldest entry (insertion-ordered dict)
                self._rpt.pop(next(iter(self._rpt)))
            self._rpt[pc] = (addr, 0, False)
            return
        last_addr, stride, _ = entry
        delta = addr - last_addr
        confirmed = delta == stride and delta != 0
        self._rpt[pc] = (addr, delta, confirmed)
        if not confirmed:
            return
        line_words = self.config.line_words
        cur_line = addr // line_words
        direction = 1 if delta > 0 else -1
        targets = []
        for k in range(1, cfg.degree + 1):
            # the line the stream will actually touch k accesses ahead
            target = (addr + delta * k) // line_words
            if target == cur_line:
                # |delta| < line_words: keep the lookahead in whole lines
                # so the prefetcher runs ahead of the stream instead of
                # re-requesting the line it is already in
                target = cur_line + direction * k
            targets.append(target)
        self._request_lines(targets, ready_base)

    def _issue_prefetches(self, line_tag: int, ready_base: int) -> None:
        """OBL policy trigger (demand-miss / prefetch-hit driven)."""
        cfg = self.prefetch_config
        if cfg.policy != "obl":
            return
        self._request_lines(
            (line_tag + k for k in range(1, cfg.degree + 1)), ready_base
        )

    def _retire_stale(self, now: int) -> None:
        """Drop pending lines whose ready time passed more than
        ``stale_after`` cycles ago without a demand claiming them.

        ``_pending`` is insertion-ordered and ready times are monotone in
        the access clock, so only the front of the dict can be stale —
        the sweep stops at the first fresh entry.
        """
        pending = self._pending
        threshold = now - self._stale_after
        stale = 0
        for tag, ready in pending.items():
            if ready > threshold:
                break
            stale += 1
        for _ in range(stale):
            pending.pop(next(iter(pending)))
        self.stats.prefetches_stale += stale

    # -- the timing interface used by the scalar machine ------------------

    def access(self, addr, is_write: bool, now: int = 0,
               pc: int = 0) -> int:
        """Simulate one word access at cycle ``now`` by the instruction at
        ``pc``; returns the cycles it takes."""
        a = as_address(addr)
        self._tick += 1
        cfg = self.config
        if self._pending:
            self._retire_stale(now)
        set_index, tag = self._locate(a)
        cache_set = self._sets[set_index]
        if self.prefetch_config.policy == "stride":
            self._train_rpt(pc, a, now + cfg.hit_time)
        line = cache_set.get(tag)
        if line is not None:
            self.stats.hits += 1
            line.last_used = self._tick
            if is_write:
                line.dirty = True
            return cfg.hit_time
        # pending prefetch?
        if tag in self._pending:
            ready = self._pending.pop(tag)
            self._install(tag, now)
            installed = cache_set[tag]
            installed.last_used = self._tick
            if is_write:
                installed.dirty = True
            if ready <= now:
                self.stats.prefetch_hits += 1
                cost = cfg.hit_time
            else:
                self.stats.prefetch_partial_hits += 1
                cost = cfg.hit_time + (ready - now)
            self._issue_prefetches(tag, now + cost)
            return cost
        # genuine demand miss: same cost structure as the plain cache,
        # plus any write-back debt owed by earlier prefetch-fill evictions
        self.stats.misses += 1
        cost = (
            cfg.hit_time
            + self.memory_latency
            + (cfg.line_words - 1) * cfg.transfer_cycles
            + self._deferred_writeback_cycles
        )
        self._deferred_writeback_cycles = 0
        if len(cache_set) >= cfg.associativity:
            victim_tag = min(cache_set, key=lambda t: cache_set[t].last_used)
            victim = cache_set.pop(victim_tag)
            if victim.dirty:
                self.stats.writebacks += 1
                cost += cfg.line_words * cfg.transfer_cycles
        from .cache import _Line

        new_line = _Line(tag, self._tick)
        if is_write:
            new_line.dirty = True
        cache_set[tag] = new_line
        self._issue_prefetches(tag, now + cost)
        return cost

    def flush_cycles(self) -> int:
        """End-of-run drain: dirty lines plus any write-back debt still
        owed, with in-flight-but-never-used prefetches retired so
        ``prefetch_accuracy`` accounts for them."""
        cycles = super().flush_cycles() + self._deferred_writeback_cycles
        self._deferred_writeback_cycles = 0
        self.stats.prefetches_stale += len(self._pending)
        self._pending.clear()
        return cycles

    def register_metrics(self, registry, prefix: str = "cache") -> None:
        super().register_metrics(registry, prefix)
        registry.register_counter(
            f"{prefix}.coverage", lambda s=self.stats: s.coverage
        )
        registry.register_counter(
            f"{prefix}.prefetch_accuracy",
            lambda s=self.stats: s.prefetch_accuracy,
        )
