"""The coupled SMA machine: AP + EP + stream engine + store unit + memory.

:class:`SMAMachine` owns one instance of every component and advances them
in lockstep, one simulated cycle per iteration:

1. memory completions are delivered (filling reserved queue slots),
2. the store unit tries to commit one paired store,
3. the stream engine issues structured-access requests,
4. the access processor and the execute processor each attempt one
   instruction,
5. queue occupancies are sampled.

The run ends when both processors have halted *and* all asynchronous work
has drained (streams finished, SAQ empty, memory quiescent).  A watchdog
aborts with a diagnostic if no forward progress happens for
``deadlock_window`` cycles — with an in-order machine and FIFO queues this
always indicates a miscompiled program (e.g. EP pops a queue the AP never
feeds), and the stall-cause breakdown in the exception message says which.

**Cycle fast-forward.**  In the latency-dominated regime (long memory
latency, shallow queues, loss-of-decoupling recurrences) most simulated
cycles are *fully idle*: every unit is stalled waiting on a pending memory
completion, and stepping the machine changes nothing but time-weighted
statistics.  ``run`` detects this — two consecutive cycles in which no
instruction retired, no request issued, no store committed and no
completion fired — and jumps the clock directly to the next memory event
(earliest pending completion, or earliest busy bank becoming free),
replaying the idle cycle's statistic increments in closed form so every
counter stays bit-identical to naive ticking.  The fast path disables
itself when an ``observer`` is attached, so trace collectors still see
every cycle; ``fast_forward=False`` forces naive ticking (used by the
differential property tests and the throughput benchmark).

The metrics layer (:meth:`SMAMachine.attach_metrics`) is *not* an
observer: its per-cycle stall classifier and stride samplers replay in
closed form inside ``replay_stall_cycles``, so attaching metrics keeps
the fast path enabled and every bucket total bit-identical to naive
ticking (property-tested in ``tests/test_metrics.py``).
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from ..config import SMAConfig
from ..errors import SimulationError
from ..isa import Program
from ..memory import BankedMemory, MainMemory
from ..queues import QueueFile
from .access_processor import AccessProcessor, APStats
from .descriptors import StreamEngine, StreamEngineStats
from .execute_processor import EPStats, ExecuteProcessor
from .store_unit import StoreUnit, StoreUnitStats

#: process-wide default for the cycle fast-forward path.  ``SMAMachine.run``
#: consults this when its ``fast_forward`` argument is ``None``; the
#: throughput benchmark flips it to time naive ticking through unmodified
#: harness code paths.
FAST_FORWARD = True


def set_fast_forward(enabled: bool) -> bool:
    """Set the process-wide fast-forward default; returns the old value."""
    global FAST_FORWARD
    previous = FAST_FORWARD
    FAST_FORWARD = bool(enabled)
    return previous


@dataclass
class SMAResult:
    """Everything measured during one SMA run."""

    cycles: int
    ap: APStats
    ep: EPStats
    engine: StreamEngineStats
    store_unit: StoreUnitStats
    memory_reads: int
    memory_writes: int
    bank_conflicts: int
    port_rejects: int
    memory_utilization: float
    #: time-weighted mean number of occupied load-queue slots — the
    #: run-ahead ("slip") the decoupling achieved.
    mean_outstanding_loads: float
    max_outstanding_loads: int
    queue_stats: dict[str, Any] = field(default_factory=dict)
    #: per-bucket cycle partition (see repro.metrics.attribution); None
    #: unless metrics were attached to the machine.
    stall_breakdown: dict[str, int] | None = None
    #: speculative-AP counters (see repro.core.speculation); None unless
    #: the machine ran with speculation enabled.
    speculation: dict[str, int] | None = None

    @property
    def instructions(self) -> int:
        return self.ap.instructions + self.ep.instructions

    @property
    def lod_events(self) -> int:
        return self.ap.lod_events

    @property
    def lod_stall_cycles(self) -> int:
        return self.ap.lod_stall_cycles()

    def to_dict(self) -> dict:
        """JSON-serializable flat summary (for harness consumers)."""
        out = {
            "cycles": self.cycles,
            "ap_instructions": self.ap.instructions,
            "ep_instructions": self.ep.instructions,
            "ap_stalls": dict(self.ap.stall_cycles),
            "ep_stalls": dict(self.ep.stall_cycles),
            "streams_started": self.engine.streams_started,
            "stream_requests": self.engine.requests_issued,
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
            "bank_conflicts": self.bank_conflicts,
            "port_rejects": self.port_rejects,
            "memory_utilization": self.memory_utilization,
            "mean_outstanding_loads": self.mean_outstanding_loads,
            "max_outstanding_loads": self.max_outstanding_loads,
            "lod_events": self.lod_events,
            "lod_stall_cycles": self.lod_stall_cycles,
        }
        if self.stall_breakdown is not None:
            out["stall_breakdown"] = dict(self.stall_breakdown)
        if self.speculation is not None:
            out["speculation"] = dict(self.speculation)
        return out

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"cycles                 {self.cycles}",
            f"AP instructions        {self.ap.instructions}"
            f"  (stalls {self.ap.total_stalls()}: {self.ap.stall_cycles})",
            f"EP instructions        {self.ep.instructions}"
            f"  (stalls {self.ep.total_stalls()}: {self.ep.stall_cycles})",
            f"streams started        {self.engine.streams_started}"
            f"  requests {self.engine.requests_issued}",
            f"memory reads/writes    {self.memory_reads}/{self.memory_writes}"
            f"  conflicts {self.bank_conflicts}",
            f"memory utilization     {self.memory_utilization:.3f}",
            f"mean outstanding loads {self.mean_outstanding_loads:.2f}"
            f"  (max {self.max_outstanding_loads})",
            f"LOD events             {self.lod_events}"
            f"  ({self.lod_stall_cycles} stall cycles)",
        ]
        return "\n".join(lines)


class SMAMachine:
    """A complete decoupled access/execute machine instance."""

    def __init__(
        self,
        access_program: Program,
        execute_program: Program,
        config: SMAConfig | None = None,
        shared_memory: BankedMemory | None = None,
    ):
        self.config = config or SMAConfig()
        if shared_memory is not None:
            # multiprocessor configuration: several machines contend for
            # one banked memory (see repro.core.cluster); the cluster owns
            # the memory tick
            self.memory = shared_memory.storage
            self.banked = shared_memory
            self._owns_memory = False
        else:
            self.memory = MainMemory(self.config.memory.size)
            if self.config.faults is not None:
                from ..memory.banks import FaultyMemory

                self.banked = FaultyMemory(
                    self.memory, self.config.memory, self.config.faults
                )
            else:
                self.banked = BankedMemory(self.memory, self.config.memory)
            self._owns_memory = True
        self.queues = QueueFile(self.config)
        self.engine = StreamEngine(
            self.banked,
            self.config.max_streams,
            self.config.stream_issue_per_cycle,
        )
        self.store_unit = StoreUnit(self.queues, self.banked)
        self.ap = AccessProcessor(
            access_program, self.queues, self.banked, self.engine
        )
        self.ep = ExecuteProcessor(execute_program, self.queues)
        for program in (access_program, execute_program):
            for base, values in program.data:
                self.memory.load_array(base, values)
        self.cycle = 0
        self._occupancy_sum = 0
        self._occupancy_max = 0
        #: stall-attribution layer, attached via attach_metrics(); unlike
        #: an observer it does not disable cycle fast-forward
        self._metrics = None
        # flat queue view, built once: used by the per-cycle sampling and
        # by the fast-forward statistics replay
        self._queue_list = self.queues.all_queues()
        self._load_slots = [q._slots for q in self.queues.load]
        #: speculative-AP engine (repro.core.speculation), built lazily by
        #: _ensure_speculation so the oracle pre-run sees loaded inputs
        self._spec = None
        self._spec_ready = False

    # -- convenience for loading workloads ------------------------------

    def load_array(self, base: int, values) -> None:
        """Place a workload array into memory before running."""
        self.memory.load_array(base, values)

    def dump_array(self, base: int, count: int):
        """Read back a result array after running."""
        return self.memory.dump_array(base, count)

    # -- observability ---------------------------------------------------

    def attach_metrics(self, samplers=None, registry=None):
        """Attach the stall-attribution metrics layer; returns it.

        Unlike ``run(observer=...)`` this keeps the cycle fast-forward
        path enabled: the classifier and any stride samplers are replayed
        in closed form by ``replay_stall_cycles``.  ``samplers=None``
        installs the default load-queue-occupancy sampler; pass an empty
        tuple for none.
        """
        from ..metrics import SMAMachineMetrics, StrideSampler

        if samplers is None:
            samplers = (
                StrideSampler(
                    "load_queue_occupancy",
                    lambda m: sum(map(len, m._load_slots)),
                    stride=64,
                ),
            )
        self._metrics = SMAMachineMetrics(
            self, registry=registry, samplers=samplers
        )
        return self._metrics

    # -- the simulation loop ---------------------------------------------

    def done(self) -> bool:
        """True when both processors halted and all async work drained."""
        return (
            self.ap.halted
            and self.ep.halted
            and self.engine.idle()
            and not self.store_unit.pending()
            and (not self._owns_memory or self.banked.quiescent())
            and (self._spec is None or self._spec.idle())
        )

    # kept for any external callers of the old private name
    _done = done

    def step_cycle(self, tick_memory: bool = True) -> None:
        """Advance the machine by one cycle.

        ``tick_memory=False`` is used by :class:`repro.core.cluster.
        SMACluster`, which owns the shared memory and ticks it exactly
        once per cycle for all member machines.
        """
        now = self.cycle
        if not self._spec_ready:
            self._ensure_speculation()
        if tick_memory:
            self.banked.tick(now)
        self.store_unit.tick(now)
        self.engine.tick(now)
        self.ap.step(now)
        self.ep.step(now)
        if self._spec is not None:
            # end-of-cycle prediction resolution: both processors have
            # acted, so any EP confirmation pushed this cycle is visible
            self._spec.on_cycle(self, now)
        self.queues.sample()
        outstanding = sum(map(len, self._load_slots))
        self._occupancy_sum += outstanding
        if outstanding > self._occupancy_max:
            self._occupancy_max = outstanding
        if self._metrics is not None:
            self._metrics.on_cycle(self, now)
        self.cycle += 1

    def _ensure_speculation(self, oracle: dict | None = None) -> None:
        """Build the speculation engine on first use (idempotent).
        ``oracle`` supplies pre-recorded prediction tables (checkpoint
        restore), skipping the reference pre-run.

        Deferred past construction so the oracle pre-run observes the
        same initial memory image as the speculative run — workloads are
        loaded with :meth:`load_array` after the machine is built.  A
        config whose :attr:`SpeculationConfig.enabled` is false (accuracy
        0 or mode ``"never"``) never creates an engine at all, keeping
        such runs bit-identical to a machine with no speculation config.
        """
        self._spec_ready = True
        spec_cfg = self.config.speculation
        if spec_cfg is None or not spec_cfg.enabled or self._spec is not None:
            return
        from .speculation import SpeculationEngine

        self._spec = SpeculationEngine(self, spec_cfg, oracle=oracle)
        self.ap._spec = self._spec

    def step_cycles(self, count: int) -> int:
        """Step up to ``count`` cycles (stopping early at completion);
        returns the number actually simulated.  Convenience for taking
        mid-run checkpoints at a known cycle."""
        stepped = 0
        while stepped < count and not self.done():
            self.step_cycle()
            stepped += 1
        return stepped

    # -- checkpoint / restore --------------------------------------------

    def snapshot(self) -> dict:
        """JSON-clean image of the machine's full mutable state (see
        :mod:`repro.core.checkpoint`).  Take only between runs / steps,
        never from inside a scheduler loop."""
        from .checkpoint import snapshot_machine

        return snapshot_machine(self)

    def restore(self, data: dict) -> None:
        """Inverse of :meth:`snapshot`; the machine must have been built
        from the same programs and configuration (fingerprint-checked,
        :class:`repro.errors.CheckpointError` otherwise).  All containers
        are mutated in place, so cached references stay valid."""
        from .checkpoint import restore_machine

        restore_machine(self, data)

    def state_digest(self) -> str:
        """Deterministic sha256 over the canonical snapshot encoding; two
        machines with bit-identical state produce the same digest."""
        from .checkpoint import digest

        return digest(self.snapshot())

    def progress_state(self) -> tuple[int, ...]:
        """A tuple that changes iff the machine made forward progress
        (used for deadlock detection, here and in the cluster)."""
        return (
            self.ap.stats.instructions,
            self.ep.stats.instructions,
            self.engine.stats.requests_issued,
            self.store_unit.stats.stores_issued,
        )

    def deadlock_report(self) -> str:
        return (
            f"AP@{self.ap.pc} halted={self.ap.halted} "
            f"stalls={self.ap.stats.stall_cycles}; "
            f"EP@{self.ep.pc} halted={self.ep.halted} "
            f"stalls={self.ep.stats.stall_cycles}; "
            f"live streams={self.engine.live_streams}"
        )

    def collect_result(self) -> SMAResult:
        """Snapshot the statistics gathered so far into an SMAResult."""
        mstats = self.banked.stats
        cycles = max(self.cycle, 1)
        return SMAResult(
            cycles=self.cycle,
            ap=self.ap.stats,
            ep=self.ep.stats,
            engine=self.engine.stats,
            store_unit=self.store_unit.stats,
            memory_reads=mstats.reads,
            memory_writes=mstats.writes,
            bank_conflicts=mstats.bank_conflicts,
            port_rejects=mstats.port_rejects,
            memory_utilization=mstats.utilization(
                cycles, self.config.memory.num_banks
            ),
            mean_outstanding_loads=self._occupancy_sum / cycles,
            max_outstanding_loads=self._occupancy_max,
            queue_stats={q.name: q.stats for q in self.queues.all_queues()},
            stall_breakdown=(
                self._metrics.stall_breakdown()
                if self._metrics is not None else None
            ),
            speculation=(
                self._spec.stats.to_dict()
                if self._spec is not None else None
            ),
        )

    # -- scheduler registry ----------------------------------------------
    #
    # Each entry maps a scheduler name to an unobserved loop adapter
    # ``(machine, max_cycles, deadlock_window) -> SMAResult``.  The CLI
    # (``--scheduler`` choices), the cluster and the benchmark shoot-out
    # all iterate this mapping, so registering a scheduler here is the
    # single step needed to surface it everywhere.

    def _scheduler_naive(self, max_cycles, deadlock_window):
        return self._run_joint_idle(max_cycles, deadlock_window, False)

    def _scheduler_joint_idle(self, max_cycles, deadlock_window):
        return self._run_joint_idle(max_cycles, deadlock_window, True)

    def _scheduler_event_horizon(self, max_cycles, deadlock_window):
        return self._run_event_horizon(max_cycles, deadlock_window, None)

    def _scheduler_codegen(self, max_cycles, deadlock_window):
        return self._run_codegen(max_cycles, deadlock_window)

    #: accepted values for ``run(scheduler=...)``, in reference-first
    #: order (the first entry is the baseline the others must match)
    SCHEDULERS = {
        "naive": _scheduler_naive,
        "joint-idle": _scheduler_joint_idle,
        "event-horizon": _scheduler_event_horizon,
        "codegen": _scheduler_codegen,
    }

    def run(
        self,
        max_cycles: int = 10_000_000,
        deadlock_window: int = 10_000,
        observer=None,
        fast_forward: bool | None = None,
        scheduler: str | None = None,
    ) -> SMAResult:
        """Run to completion; returns the collected statistics.

        ``observer``, if given, is called as ``observer(machine, cycle)``
        once per simulated cycle after all components have stepped — the
        hook the trace collectors in :mod:`repro.trace` attach through.
        An observer forces naive ticking unless it declares
        ``wants_every_cycle = False``, in which case the event-horizon
        loop drives it and reports skipped spans through the observer's
        optional ``on_replay(machine, start_cycle, count)`` hook.

        ``scheduler`` selects the simulation loop explicitly:

        ``"naive"``          tick every cycle (the reference loop)
        ``"joint-idle"``     the PR 3 heuristic: jump to the next memory
                             event after two consecutive fully-idle cycles
        ``"event-horizon"``  per-component ``next_event_time`` contracts +
                             decode-cached fast step paths (default)
        ``"codegen"``        a straight-line loop compiled for this exact
                             (program, config) pair — event-horizon
                             structure with all dispatch specialized away
                             (:mod:`repro.codegen`); falls back to
                             event-horizon when the machine cannot be
                             specialized

        When ``scheduler`` is ``None`` it is derived from ``fast_forward``
        (which itself defaults to the module-wide :data:`FAST_FORWARD`):
        ``True`` → event-horizon, ``False`` → naive.  Cycle counts and
        every statistic are bit-identical across all four (see the module
        docstring, ``tests/test_fast_forward.py`` and
        ``tests/test_event_horizon.py``).  Fault injection and
        speculation narrow the choice (:meth:`_effective_scheduler`).
        """
        if scheduler is None:
            if fast_forward is None:
                fast_forward = FAST_FORWARD
            scheduler = "event-horizon" if fast_forward else "naive"
        elif scheduler not in self.SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; expected one of "
                + ", ".join(self.SCHEDULERS)
            )
        scheduler = self._effective_scheduler(scheduler)
        if observer is not None:
            if scheduler in ("event-horizon", "codegen") and not getattr(
                observer, "wants_every_cycle", True
            ):
                # generated loops carry no observer hook; a replay-aware
                # observer rides the interpreted event-horizon loop
                return self._run_event_horizon(
                    max_cycles, deadlock_window, observer
                )
            return self._run_traced(max_cycles, deadlock_window, observer)
        return self.SCHEDULERS[scheduler](self, max_cycles, deadlock_window)

    def _effective_scheduler(self, scheduler: str) -> str:
        """The loop that runs when ``scheduler`` is asked for.

        Fault injection runs naive: the fast schedulers inline memory
        acceptance (tick_fast / step_fast) and jump over cycles in which
        the deterministic fault predicate would have changed its
        verdict.  Speculation (:mod:`repro.core.speculation`) builds its
        engine here, before a loop is chosen, and runs event-horizon
        when joint-idle or codegen is asked for: codegen cannot
        specialize the speculation hooks, and the joint-idle jump
        ignores the rollback penalty.
        """
        if self.banked.fault_injection and scheduler != "naive":
            return "naive"
        if not self._spec_ready:
            self._ensure_speculation()
        if self._spec is not None and scheduler in ("joint-idle", "codegen"):
            return "event-horizon"
        return scheduler

    def _run_joint_idle(
        self, max_cycles: int, deadlock_window: int, fast_forward: bool
    ) -> SMAResult:
        """The unobserved simulation loop (optionally fast-forwarding).

        The progress probe is kept as five plain integers — retired AP/EP
        instructions, stream requests, committed stores, memory traffic —
        compared in place, so the hot loop allocates nothing when the
        machine is advancing normally.
        """
        step = self.step_cycle
        done = self.done
        banked = self.banked
        ap_stats = self.ap.stats
        ep_stats = self.ep.stats
        engine_stats = self.engine.stats
        su_stats = self.store_unit.stats
        mstats = banked.stats
        last_progress_cycle = 0
        p_ap = p_ep = p_req = p_st = p_mem = p_pend = -1
        prev_idle = False  # previous cycle was fully idle (steady stall)
        while not done():
            if self.cycle >= max_cycles:
                raise SimulationError(
                    f"exceeded cycle budget {max_cycles}"
                )
            if prev_idle and fast_forward:
                # the machine is in a steady stall: simulate one more
                # cycle as the replay template, then jump to the next
                # memory event
                snapshot = self._stall_snapshot()
                pending_before = banked.pending_completions
                step()
                if (
                    ap_stats.instructions == p_ap
                    and ep_stats.instructions == p_ep
                    and engine_stats.requests_issued == p_req
                    and su_stats.stores_issued == p_st
                    and mstats.reads + mstats.writes == p_mem
                    and banked.pending_completions == pending_before
                ):
                    # nothing moved and nothing completed: every cycle
                    # until the next memory event repeats this one exactly
                    horizon = min(
                        last_progress_cycle + deadlock_window + 1,
                        max_cycles,
                    )
                    target = banked.next_event_time(self.cycle - 1)
                    if target is None or target > horizon:
                        target = horizon
                    skipped = target - self.cycle
                    if skipped > 0:
                        self._replay_stall_cycles(snapshot, skipped)
                    if self.cycle - last_progress_cycle > deadlock_window:
                        raise SimulationError(
                            "deadlock: no forward progress for "
                            f"{deadlock_window} cycles at cycle "
                            f"{self.cycle}; " + self.deadlock_report()
                        )
                    continue
                # the candidate cycle made progress (or delivered data) —
                # fall through to the ordinary bookkeeping below
            else:
                step()
            mem = mstats.reads + mstats.writes
            ap_i = ap_stats.instructions
            ep_i = ep_stats.instructions
            req = engine_stats.requests_issued
            st = su_stats.stores_issued
            if (
                ap_i != p_ap or ep_i != p_ep or req != p_req
                or st != p_st or mem != p_mem
            ):
                p_ap = ap_i
                p_ep = ep_i
                p_req = req
                p_st = st
                p_mem = mem
                p_pend = banked.pending_completions
                last_progress_cycle = self.cycle
                prev_idle = False
            else:
                if self.cycle - last_progress_cycle > deadlock_window:
                    raise SimulationError(
                        "deadlock: no forward progress for "
                        f"{deadlock_window} cycles at cycle {self.cycle}; "
                        + self.deadlock_report()
                    )
                # a cycle that only delivered a completion is not idle:
                # the filled slot can unblock a consumer next cycle
                pending = banked.pending_completions
                prev_idle = pending == p_pend
                p_pend = pending
        return self.collect_result()

    def _run_traced(
        self, max_cycles: int, deadlock_window: int, observer
    ) -> SMAResult:
        """Naive per-cycle loop with the observer hook (trace collectors
        must see every cycle, so fast-forward is never applied here)."""
        last_progress_cycle = 0
        p_ap = p_ep = p_req = p_st = p_mem = -1
        while not self.done():
            if self.cycle >= max_cycles:
                raise SimulationError(
                    f"exceeded cycle budget {max_cycles}"
                )
            self.step_cycle()
            observer(self, self.cycle - 1)
            mem = self.banked.stats.reads + self.banked.stats.writes
            ap_i = self.ap.stats.instructions
            ep_i = self.ep.stats.instructions
            req = self.engine.stats.requests_issued
            st = self.store_unit.stats.stores_issued
            if (
                ap_i != p_ap or ep_i != p_ep or req != p_req
                or st != p_st or mem != p_mem
            ):
                p_ap, p_ep, p_req, p_st, p_mem = ap_i, ep_i, req, st, mem
                last_progress_cycle = self.cycle
            elif self.cycle - last_progress_cycle > deadlock_window:
                raise SimulationError(
                    "deadlock: no forward progress for "
                    f"{deadlock_window} cycles at cycle {self.cycle}; "
                    + self.deadlock_report()
                )
        return self.collect_result()

    # kept for any external callers of the old private name
    _run = _run_joint_idle

    # -- event-horizon scheduling ----------------------------------------

    def next_event_time(self, now: int) -> int | None:
        """Earliest cycle ≥ ``now`` at which any component of this
        machine can make externally visible progress, assuming nothing
        external intervenes: the minimum over the per-component
        ``next_event_time`` contracts (AP, EP, stream engine, store
        unit) and the earliest pending memory completion.  ``None``
        means no amount of waiting will wake this machine — only an
        external event (for a cluster node: another node's memory
        traffic completing) can."""
        best = self.banked.next_completion_time(now)
        for t in (
            self.ap.next_event_time(now),
            self.ep.next_event_time(now),
            self.engine.next_event_time(now),
            self.store_unit.next_event_time(now),
        ):
            if t is not None and (best is None or t < best):
                best = t
        return best

    def _run_event_horizon(
        self, max_cycles: int, deadlock_window: int, observer
    ) -> SMAResult:
        """The event-horizon simulation loop (see module docstring).

        Queue-occupancy statistics switch to lazy (event-driven)
        accounting for the duration: occupancies change only on
        reserve/pop, so each mutation flushes the elapsed span at the
        stable length instead of every cycle sampling every queue —
        bit-identical totals at a fraction of the bookkeeping cost
        (:meth:`lazy_occupancy` opens and closes the bracket).
        """
        clock = [self.cycle]
        with self.lazy_occupancy(clock):
            self._event_horizon_loop(
                max_cycles, deadlock_window, clock, observer
            )
        return self.collect_result()

    @contextmanager
    def lazy_occupancy(self, clock: list[int]):
        """Bracket a run of this machine in lazy (event-driven) queue
        occupancy accounting; yields the load-queue aggregate.

        ``clock`` is the one-element cell the driver sets to the current
        cycle before stepping this machine.  On exit — error paths
        included — the cell closes at ``self.cycle``, every queue is
        flushed back to per-cycle sampling mode, and the load-queue
        aggregate is folded into the machine-level occupancy counters.
        A cluster opens one bracket per node, each on its own cell, so a
        node that finishes early stops accruing samples at its own
        finish cycle.
        """
        load_queues = self.queues.load
        occ_before = [q.stats.occupancy_sum for q in load_queues]
        agg = self.queues.begin_lazy_sampling(clock)
        try:
            yield agg
        finally:
            clock[0] = self.cycle
            self.queues.end_lazy_sampling(agg)
            self._occupancy_sum += sum(
                q.stats.occupancy_sum - before
                for q, before in zip(load_queues, occ_before)
            )
            if agg.max_seen > self._occupancy_max:
                self._occupancy_max = agg.max_seen

    def _event_horizon_loop(
        self, max_cycles: int, deadlock_window: int, clock, observer
    ) -> None:
        """One fused loop: inlined completion delivery, fast component
        step paths, and contract-driven jumps.

        A jump is only *planned* when this cycle delivered no completion
        and both processors ended their last step blocked; it is only
        *taken* after one live template cycle confirms (via the plain-int
        progress probe) that nothing moved, and the horizon is then
        recomputed from the post-template stall causes — the pre-step
        flags can be stale (e.g. the EP freed a queue after the AP's
        stall was recorded), so a contract miss downgrades to a skipped
        jump, never a wrong one.  Replayed spans go through
        :meth:`_replay_fast`; deadlock and cycle-budget diagnostics fire
        at the identical cycle as naive ticking.

        A speculative machine steps the reference component methods,
        the only ones that hide poisoned queue heads and call the
        speculation hooks, resolves predictions after both processors
        step (as :meth:`step_cycle` does) and is not done while a frame
        is open.
        """
        banked = self.banked
        ap = self.ap
        ep = self.ep
        engine = self.engine
        su = self.store_unit
        metrics = self._metrics
        comps = banked._completions
        engine_streams = engine._streams
        owns_memory = self._owns_memory
        mstats = banked.stats
        saq_slots = self.queues.store_addr._slots
        ap_stats = ap.stats
        ep_stats = ep.stats
        engine_stats = engine.stats
        su_stats = su.stats
        pop = heapq.heappop
        spec = self._spec
        if spec is None:
            su_tick = su.tick_fast
            engine_tick = engine.tick_fast
            ap_step = ap.step_fast
            ep_step = ep.step_fast
            frames = ()
        else:
            su_tick = su.tick
            engine_tick = engine.tick
            ap_step = ap.step
            ep_step = ep.step
            frames = spec.stack
        horizon = self.next_event_time
        take_snapshot = self.stall_snapshot
        on_replay = (
            getattr(observer, "on_replay", None)
            if observer is not None else None
        )
        last_progress_cycle = 0
        p_ap = p_ep = p_req = p_st = p_mem = -1
        # the loop condition is self.done() spelled out over the hoisted
        # locals (identity-stable containers), saving five delegated
        # calls per simulated cycle
        while not (
            ap.halted and ep.halted and not engine_streams
            and not saq_slots and (not owns_memory or not comps)
            and not frames
        ):
            now = self.cycle
            if now >= max_cycles:
                raise SimulationError(
                    f"exceeded cycle budget {max_cycles}"
                )
            clock[0] = now
            delivered = False
            while comps and comps[0][0] <= now:
                _, _, callback, result = pop(comps)
                mstats.completions += 1
                callback(result)
                delivered = True
            snapshot = None
            if (
                not delivered
                and (ap.halted or ap._stalled_on is not None)
                and (ep.halted or ep._stalled_on is not None)
            ):
                t = horizon(now)
                if t is None or t > now + 1:
                    snapshot = take_snapshot()
            # each fast step begins with the same emptiness/halt check;
            # doing it here skips the call entirely on quiet components
            if saq_slots:
                su_tick(now)
            if engine_streams:
                engine_tick(now)
            if not ap.halted:
                ap_step(now)
            if not ep.halted:
                ep_step(now)
            if spec is not None:
                spec.on_cycle(self, now)
            if metrics is not None:
                metrics.on_cycle(self, now)
            self.cycle = now + 1
            if observer is not None:
                observer(self, now)
            mem = mstats.reads + mstats.writes
            ap_i = ap_stats.instructions
            ep_i = ep_stats.instructions
            req = engine_stats.requests_issued
            st = su_stats.stores_issued
            if (
                ap_i != p_ap or ep_i != p_ep or req != p_req
                or st != p_st or mem != p_mem
            ):
                p_ap = ap_i
                p_ep = ep_i
                p_req = req
                p_st = st
                p_mem = mem
                last_progress_cycle = self.cycle
                continue
            if snapshot is not None:
                target = horizon(self.cycle)
                bound = last_progress_cycle + deadlock_window + 1
                if target is None or target > bound:
                    target = bound
                if target > max_cycles:
                    target = max_cycles
                count = target - self.cycle
                if count > 0:
                    start = self.cycle
                    self._replay_fast(snapshot, count)
                    if on_replay is not None:
                        on_replay(self, start, count)
            if self.cycle - last_progress_cycle > deadlock_window:
                raise SimulationError(
                    "deadlock: no forward progress for "
                    f"{deadlock_window} cycles at cycle {self.cycle}; "
                    + self.deadlock_report()
                )

    # -- program-specialized codegen scheduling --------------------------

    def _run_codegen(self, max_cycles: int, deadlock_window: int) -> SMAResult:
        """Run the straight-line loop compiled for this (program, config)
        pair (see :mod:`repro.codegen`).

        The compiled artifact bakes in exactly what the emitter saw, so
        this falls back to the interpreted event-horizon loop — which is
        bit-identical — whenever the live machine strays from that:
        per-cycle metrics or a memory observer attached, a cluster node
        (the emitted loop owns the memory it drives), a swapped program
        object (the decode caches would be stale), an operand shape the
        emitter cannot specialize, or a mid-flight start (live
        stream descriptors, pending store addresses or in-flight
        completions at entry — e.g. a restored snapshot or a resumed
        budget abort).  The compiled loop fully localizes the async
        subsystems' bookkeeping, so it requires them quiescent when it
        takes over; register/queue/memory contents may be anything.
        Neither fault injection nor speculation reaches here: :meth:`run`
        sends the first to naive and the second to event-horizon.
        """
        artifact = None
        if (
            self._metrics is None
            and self.memory.observer is None
            and self._owns_memory
            and self.ap.program is self.ap._prog
            and self.ep.program is self.ep._prog
            and not self.engine._streams
            and not self.queues.store_addr._slots
            and not self.banked._completions
        ):
            from ..codegen import compiled_loop_for

            artifact = compiled_loop_for(self)
        if artifact is None:
            return self._run_event_horizon(max_cycles, deadlock_window, None)
        # the generated loop mutates queues with inlined flush bodies
        # against the bracket's clock cell and load-queue aggregate
        clock = [self.cycle]
        with self.lazy_occupancy(clock) as agg:
            artifact.fn(self, max_cycles, deadlock_window, clock, agg)
        return self.collect_result()

    def _replay_fast(self, snapshot, count: int) -> None:
        """Closed-form replay for the event-horizon loop: identical to
        :meth:`replay_stall_cycles` minus the per-queue occupancy
        sampling, which the lazy accounting installed by
        ``QueueFile.begin_lazy_sampling`` already covers by span (queue
        contents do not change across a confirmed-idle span, so the next
        flush attributes every skipped cycle at the correct length)."""
        ap_before, lod_before, ep_before, blocked_before, \
            dwait_before, mwait_before, queues_before, spec_before = snapshot
        ap = self.ap.stats
        for cause, value in ap.stall_cycles.items():
            delta = value - ap_before.get(cause, 0)
            if delta:
                ap.stall_cycles[cause] = value + delta * count
        ap.lod_events += (ap.lod_events - lod_before) * count
        ep = self.ep.stats
        for cause, value in ep.stall_cycles.items():
            delta = value - ep_before.get(cause, 0)
            if delta:
                ep.stall_cycles[cause] = value + delta * count
        engine_stats = self.engine.stats
        engine_stats.blocked_cycles += (
            engine_stats.blocked_cycles - blocked_before
        ) * count
        su = self.store_unit.stats
        su.data_wait_cycles += (su.data_wait_cycles - dwait_before) * count
        su.memory_wait_cycles += (
            su.memory_wait_cycles - mwait_before
        ) * count
        for queue, (empty_before, full_before) in zip(
            self._queue_list, queues_before
        ):
            stats = queue.stats
            delta = stats.empty_stalls - empty_before
            if delta:
                stats.empty_stalls += delta * count
            delta = stats.full_stalls - full_before
            if delta:
                stats.full_stalls += delta * count
        if spec_before is not None:
            # a refused prediction is retried, and counted, every cycle
            spec_stats = self._spec.stats
            depth_before, oracle_before = spec_before
            spec_stats.depth_refusals += (
                spec_stats.depth_refusals - depth_before
            ) * count
            spec_stats.oracle_refusals += (
                spec_stats.oracle_refusals - oracle_before
            ) * count
        if self._metrics is not None:
            self._metrics.on_replay(self, self.cycle, count)
        self.cycle += count

    # -- fast-forward statistics replay ---------------------------------
    #
    # The snapshot/replay pair below is the *replay contract*: any driver
    # that steps this machine — its own ``_run`` loop, or an
    # :class:`repro.core.cluster.SMACluster` that owns the shared memory
    # tick — may snapshot before a candidate idle cycle and, once the
    # cycle is confirmed fully idle, replay it ``count`` times in closed
    # form.  Neither method touches the memory model, so a non-owning
    # cluster node replays exactly like a standalone machine.

    def stall_snapshot(self):
        """Snapshot of every counter a fully-idle cycle can increment,
        taken immediately before simulating the replay-template cycle."""
        ap = self.ap.stats
        ep = self.ep.stats
        su = self.store_unit.stats
        spec = self._spec
        return (
            dict(ap.stall_cycles),
            ap.lod_events,
            dict(ep.stall_cycles),
            self.engine.stats.blocked_cycles,
            su.data_wait_cycles,
            su.memory_wait_cycles,
            [
                (q.stats.empty_stalls, q.stats.full_stalls)
                for q in self._queue_list
            ],
            (spec.stats.depth_refusals, spec.stats.oracle_refusals)
            if spec is not None else None,
        )

    def replay_stall_cycles(self, snapshot, count: int) -> None:
        """Advance the clock by ``count`` cycles, applying the statistic
        increments of the just-simulated idle cycle (the delta against
        ``snapshot``) in closed form.

        Sound because a fully-idle cycle leaves every piece of machine
        state untouched except monotone counters: queue contents, PCs,
        stall causes and the stream engine's round-robin pointer are all
        unchanged, so each skipped cycle would have incremented exactly
        the same counters by exactly the same amounts.
        """
        for queue in self._queue_list:
            stats = queue.stats
            occupancy = len(queue)
            stats.samples += count
            stats.occupancy_sum += occupancy * count
            # the template cycle sampled this occupancy, so the bucket
            # already exists (and occupancy_max already covers it)
            stats.histogram[occupancy] += count
        self._occupancy_sum += sum(map(len, self._load_slots)) * count
        self._replay_fast(snapshot, count)

    # old private names, kept for external callers
    _stall_snapshot = stall_snapshot
    _replay_stall_cycles = replay_stall_cycles
