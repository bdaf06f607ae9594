"""Per-run stall attribution: where did every cycle go?

:class:`SMAMachineMetrics` classifies each simulated cycle of an
:class:`repro.core.SMAMachine` into exactly one bucket, so the buckets
**partition** total cycles (they always sum to ``machine.cycle``).  The
classification reads the per-cycle stall indicators the processors
already maintain (``_stalled_on``, set on every stalled cycle and
cleared on retire) plus deltas of the store-unit / stream-engine / queue
counters — no component grows new state.

Priority order (first match wins; documented in ARCHITECTURE.md §14):

1. ``loss_of_decoupling`` — the AP is stalled on ``lod_eaq``/``lod_ebq``,
   i.e. the access side is serialized behind the execute side.  Checked
   before ``compute`` so an EP retire during an LOD episode doesn't mask
   the recurrence (matches the R-T4 accounting).
2. ``misspeculation`` — the speculative AP is repaying a rollback
   (``misspeculation``) or held at a descriptor speculation barrier
   (``spec_barrier``); like LOD, checked before ``compute`` so an EP
   retire doesn't mask the recovery cost (the AP-retire check still
   wins: a cycle where the AP itself advanced is ``compute``).
3. ``compute`` — the AP or the EP retired an instruction this cycle.
4. ``queue_full`` — a processor is blocked pushing into a full queue
   (EP ``q_full``; AP ``queue_full``/``saq_full``/``stream_slots``/
   ``stream_queue_busy``), or the stream engine was blocked by a full
   target queue this cycle.
5. ``queue_empty`` — a processor is blocked popping an empty queue
   (EP ``lq_empty``; AP ``iq_empty``).
6. ``bank_busy`` — the AP is stalled on ``memory_busy``, or the stream
   engine had work but could not issue (bank/port contention).
7. ``store_wait`` — only the store unit made wait progress (waiting for
   store data from the EP or for a bank to accept the store).
8. ``drain`` — none of the above: end-of-run settling while in-flight
   memory traffic completes.

Fast-forward compatibility: the machine calls :meth:`on_cycle` for every
stepped cycle, from ``step_cycle`` or the event-horizon loop (so the
replay-*template* cycle is classified normally), and :meth:`on_replay`
from ``_replay_fast``.  Skipped cycles are
exact repeats of the template, so the replay adds ``count`` to the
template's bucket and advances the stride samplers in closed form —
bucket totals stay bit-identical to naive ticking (property-tested in
``tests/test_metrics.py``).

The scalar baseline needs no per-cycle hook: it is event-jumped, and its
breakdown (``compute`` / ``memory_wait`` / ``bank_busy`` /
``store_drain``) is derived exactly from its counters — see
:meth:`repro.baseline.ScalarResult.stall_breakdown`.
"""

from __future__ import annotations

from .registry import MetricsRegistry, StrideSampler, register_stats

#: the SMA cycle buckets, in classification priority order after
#: ``compute`` is hoisted for readability.
STALL_BUCKETS = (
    "compute",
    "loss_of_decoupling",
    "misspeculation",
    "queue_full",
    "queue_empty",
    "bank_busy",
    "store_wait",
    "drain",
)

#: the scalar baseline's (derived, not per-cycle) buckets.
SCALAR_BUCKETS = ("compute", "memory_wait", "bank_busy", "store_drain")

_AP_LOD = ("lod_eaq", "lod_ebq")
#: speculative-AP recovery/barrier stalls (repro.core.speculation):
#: rollback penalty cycles and descriptor speculation barriers
_AP_MISSPEC = ("misspeculation", "spec_barrier")
_AP_QUEUE_FULL = (
    "queue_full", "saq_full", "stream_slots", "stream_queue_busy"
)


class SMAMachineMetrics:
    """Stall attribution + registry wiring for one ``SMAMachine``.

    Created by :meth:`repro.core.SMAMachine.attach_metrics`; holds the
    per-bucket cycle counts in :attr:`buckets` and a
    :class:`MetricsRegistry` exposing every component's counters.
    """

    def __init__(self, machine, registry=None, samplers=()):
        self.registry = registry if registry is not None else MetricsRegistry()
        for sampler in samplers:
            self.registry.add_sampler(sampler)
        self.buckets: dict[str, int] = dict.fromkeys(STALL_BUCKETS, 0)
        #: bucket of the most recently classified cycle — the replay
        #: template during fast-forward
        self._last_bucket = "drain"
        ap_stats = machine.ap.stats
        ep_stats = machine.ep.stats
        su_stats = machine.store_unit.stats
        engine_stats = machine.engine.stats
        self._queue_stats = [q.stats for q in machine._queue_list]
        # previous-cycle counter values, for delta detection
        self._prev_ap = ap_stats.instructions
        self._prev_ep = ep_stats.instructions
        self._prev_store = (
            su_stats.data_wait_cycles + su_stats.memory_wait_cycles
        )
        self._prev_blocked = engine_stats.blocked_cycles
        self._prev_full = sum(s.full_stalls for s in self._queue_stats)
        # registry: every timed component publishes its stats
        registry = self.registry
        register_stats(registry, "ap", ap_stats)
        register_stats(registry, "ep", ep_stats)
        register_stats(registry, "engine", engine_stats)
        register_stats(registry, "store_unit", su_stats)
        machine.banked.register_metrics(registry, "memory")
        for queue in machine._queue_list:
            register_stats(registry, f"queue.{queue.name}", queue.stats)
        registry.register_counter("machine.cycles", lambda m=machine: m.cycle)

    # -- the per-cycle hook (called from SMAMachine.step_cycle) ----------

    def on_cycle(self, machine, cycle: int) -> None:
        """Classify the cycle that just finished stepping."""
        ap = machine.ap
        ep = machine.ep
        ap_i = ap.stats.instructions
        ep_i = ep.stats.instructions
        su = machine.store_unit.stats
        store = su.data_wait_cycles + su.memory_wait_cycles
        blocked = machine.engine.stats.blocked_cycles
        full = sum(s.full_stalls for s in self._queue_stats)
        ap_stall = ap._stalled_on
        ep_stall = ep._stalled_on
        engine_blocked = blocked != self._prev_blocked
        if ap_stall in _AP_LOD:
            bucket = "loss_of_decoupling"
        elif ap_stall in _AP_MISSPEC and ap_i == self._prev_ap:
            # speculation recovery: the AP is frozen repaying a rollback
            # (or held at a descriptor barrier); an EP retire this cycle
            # must not mask the recovery cost, mirroring the LOD rule
            bucket = "misspeculation"
        elif ap_i != self._prev_ap or ep_i != self._prev_ep:
            bucket = "compute"
        elif (
            ep_stall == "q_full"
            or ap_stall in _AP_QUEUE_FULL
            or (engine_blocked and full != self._prev_full)
        ):
            bucket = "queue_full"
        elif ep_stall == "lq_empty" or ap_stall == "iq_empty":
            bucket = "queue_empty"
        elif ap_stall == "memory_busy" or engine_blocked:
            bucket = "bank_busy"
        elif store != self._prev_store:
            bucket = "store_wait"
        else:
            bucket = "drain"
        self.buckets[bucket] += 1
        self._last_bucket = bucket
        self._prev_ap = ap_i
        self._prev_ep = ep_i
        self._prev_store = store
        self._prev_blocked = blocked
        self._prev_full = full
        for sampler in self.registry.samplers:
            sampler.on_cycle(machine, cycle)

    # -- the fast-forward hook (called from _replay_fast) ----------------

    def on_replay(self, machine, start: int, count: int) -> None:
        """Account ``count`` skipped cycles, each an exact repeat of the
        template cycle :meth:`on_cycle` just classified."""
        self.buckets[self._last_bucket] += count
        for sampler in self.registry.samplers:
            sampler.on_replay(machine, start, count)
        # the replay advanced the underlying counters in closed form;
        # resync the deltas so the next live cycle classifies cleanly
        su = machine.store_unit.stats
        self._prev_ap = machine.ap.stats.instructions
        self._prev_ep = machine.ep.stats.instructions
        self._prev_store = su.data_wait_cycles + su.memory_wait_cycles
        self._prev_blocked = machine.engine.stats.blocked_cycles
        self._prev_full = sum(s.full_stalls for s in self._queue_stats)

    # -- snapshots -------------------------------------------------------

    def stall_breakdown(self) -> dict[str, int]:
        """Copy of the per-bucket cycle counts (partition of cycles)."""
        return dict(self.buckets)
