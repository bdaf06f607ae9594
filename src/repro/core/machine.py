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

**Two loops.**  ``run`` drives the machine through one of the two
bit-identical loops in :attr:`SMAMachine.SCHEDULERS`.
``"naive"`` is the reference: it calls :meth:`SMAMachine.step_cycle`
once per cycle and hands every cycle to an optional observer.
``"event-horizon"``, the default, steps the components' decode-cached
fast paths, keeps queue occupancy in lazy event-driven form, and — when
both processors are blocked — asks each component's ``next_event_time``
contract for the earliest cycle anything can change.  After one live
template cycle confirms that nothing moved, it jumps the clock there and
replays the template cycle's counter increments in closed form
(:meth:`SMAMachine.stall_snapshot` / ``_replay_fast``), so every
statistic stays bit-identical to naive ticking (see
``docs/ARCHITECTURE.md`` §16).

The metrics layer (:meth:`SMAMachine.attach_metrics`) is *not* an
observer: its per-cycle stall classifier and stride samplers replay in
closed form inside ``_replay_fast``, so attaching metrics keeps the
event-horizon loop jumping and every bucket total bit-identical to
naive ticking (property-tested in ``tests/test_metrics.py``).
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

#: process-wide default loop: ``SMAMachine.run`` and ``SMACluster.run``
#: take event-horizon when this is true and naive when it is false, if
#: their ``scheduler`` argument is ``None``; the throughput benchmark
#: flips it to time naive ticking through unmodified harness code paths.
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

        Unlike ``run(observer=...)`` this keeps the event-horizon loop
        jumping: the classifier and any stride samplers are replayed in
        closed form by ``_replay_fast``.  ``samplers=None``
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

    def _ensure_speculation(self) -> None:
        """Build the speculation engine on first use (idempotent).

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

        self._spec = SpeculationEngine(self, spec_cfg)
        self.ap._spec = self._spec

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

    # -- the simulation loops --------------------------------------------
    #
    # ``SCHEDULERS`` maps each loop name to its unbound loop method,
    # ``(machine, max_cycles, deadlock_window) -> None``; only the
    # reference loop also takes an observer.
    # The CLI (``--scheduler`` choices), the cluster and the benchmark
    # shoot-out all iterate this mapping, so registering a loop here is
    # the single step needed to surface it everywhere.

    def run(
        self,
        max_cycles: int = 10_000_000,
        deadlock_window: int = 10_000,
        observer=None,
        scheduler: str | None = None,
    ) -> SMAResult:
        """Run to completion; returns the collected statistics.

        ``scheduler`` picks the loop: ``"naive"`` ticks every cycle (the
        reference), ``"event-horizon"`` jumps provably idle spans (see
        the module docstring).  ``None`` takes event-horizon, or naive
        when the process-wide :data:`FAST_FORWARD` is off.  Cycle counts
        and every statistic are bit-identical under both (see
        ``tests/test_fast_forward.py`` and ``tests/test_event_horizon.py``);
        the loop asked for is the loop that runs.

        ``observer``, if given, is called as ``observer(machine, cycle)``
        once per simulated cycle after all components have stepped — the
        hook the trace collectors in :mod:`repro.trace` attach through.
        Only the naive loop calls it: with ``scheduler=None`` an observer
        selects naive, and ``scheduler="event-horizon"`` with an
        observer is a ``ValueError``.
        """
        scheduler = self._effective_scheduler(scheduler, observer)
        if observer is None:
            self.SCHEDULERS[scheduler](self, max_cycles, deadlock_window)
        else:  # _effective_scheduler chose the reference loop
            self._run_naive(max_cycles, deadlock_window, observer)
        return self.collect_result()

    def _effective_scheduler(self, scheduler: str | None,
                             observer=None) -> str:
        """The loop that runs when ``scheduler`` is asked for.

        ``None`` follows :data:`FAST_FORWARD`, except that an observer
        (see :meth:`run`) selects naive; an observer with any other loop
        asked for is a ``ValueError``.  Any other named loop runs as
        asked.  Speculation (:mod:`repro.core.speculation`) builds its
        engine here, before the loop runs, so its oracle pre-run sees
        the loaded inputs.
        """
        if scheduler is None:
            scheduler = ("event-horizon" if FAST_FORWARD and observer is None
                         else "naive")
        elif scheduler not in self.SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; expected one of "
                + ", ".join(self.SCHEDULERS)
            )
        elif observer is not None and scheduler != "naive":
            raise ValueError(
                f"an observer runs only on the naive loop, not on "
                f"{scheduler!r}, which skips cycles; pass "
                "scheduler='naive' or None"
            )
        if not self._spec_ready:
            self._ensure_speculation()
        return scheduler

    def _run_naive(
        self, max_cycles: int, deadlock_window: int, observer=None,
    ) -> None:
        """The reference loop: :meth:`step_cycle` every cycle, then
        ``observer(machine, cycle)`` if one is attached.

        The progress probe is kept as five plain integers — retired AP/EP
        instructions, stream requests, committed stores, memory traffic —
        compared in place, so the loop allocates nothing while the
        machine is advancing.
        """
        step = self.step_cycle
        done = self.done
        ap_stats = self.ap.stats
        ep_stats = self.ep.stats
        engine_stats = self.engine.stats
        su_stats = self.store_unit.stats
        mstats = self.banked.stats
        last_progress_cycle = 0
        p_ap = p_ep = p_req = p_st = p_mem = -1
        while not done():
            if self.cycle >= max_cycles:
                raise SimulationError(f"exceeded cycle budget {max_cycles}")
            step()
            if observer is not None:
                observer(self, self.cycle - 1)
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
            elif self.cycle - last_progress_cycle > deadlock_window:
                raise SimulationError(
                    "deadlock: no forward progress for "
                    f"{deadlock_window} cycles at cycle {self.cycle}; "
                    + self.deadlock_report()
                )

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
        self, max_cycles: int, deadlock_window: int
    ) -> None:
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
            self._event_horizon_loop(max_cycles, deadlock_window, clock)

    #: accepted values for ``run(scheduler=...)``, reference first (the
    #: loop every other entry must match bit for bit)
    SCHEDULERS = {
        "naive": _run_naive,
        "event-horizon": _run_event_horizon,
    }

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
        self, max_cycles: int, deadlock_window: int, clock
    ) -> None:
        """One fused loop: inlined completion delivery, fast component
        step paths, and contract-driven jumps.

        Progress is what the steps report: each fast step returns whether
        it retired an instruction or issued a request, and memory traffic
        only ever moves with one of those, so a cycle in which no step
        returned true is one in which :meth:`_run_naive`'s counter probe
        stands still.  A jump is only *planned* when this cycle delivered
        no completion and both processors ended their last step blocked;
        it is only *taken* after one live template cycle made no
        progress, and the horizon is then recomputed from the
        post-template stall causes — the pre-step flags can be stale
        (e.g. the EP freed a queue after the AP's stall was recorded), so
        a contract miss downgrades to a skipped jump, never a wrong one.
        Replayed spans go through :meth:`_replay_fast`, clamped to
        ``max_cycles``; every exit fires at the identical cycle as naive
        ticking.

        A speculative machine steps the same fast methods, which hide
        poisoned queue heads and call the speculation hooks as the
        reference methods do; it resolves predictions after both
        processors step (as :meth:`step_cycle` does) and is not done
        while a frame is open.
        """
        ap = self.ap
        ep = self.ep
        engine = self.engine
        metrics = self._metrics
        comps = self.banked._completions
        engine_streams = engine._streams
        owns_memory = self._owns_memory
        mstats = self.banked.stats
        saq_slots = self.queues.store_addr._slots
        pop = heapq.heappop
        su_tick = self.store_unit.tick_fast
        engine_tick = engine.tick_fast
        ap_step = ap.step_fast
        ep_step = ep.step_fast
        spec = self._spec
        frames = spec.stack if spec is not None else ()
        horizon = self.next_event_time
        take_snapshot = self.stall_snapshot
        start = self.cycle
        last_progress_cycle = start
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
                raise SimulationError(f"exceeded cycle budget {max_cycles}")
            clock[0] = now
            delivered = False
            while comps and comps[0][0] <= now:
                # a completion entry names the slot its load reserved;
                # fill it in place (OperandQueue.fill)
                _, _, queue, slot, value = pop(comps)
                slot.filled = True
                slot.value = value
                queue.stats.pushes += 1
                mstats.completions += 1
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
            moved = su_tick(now) if saq_slots else False
            if engine_streams and engine_tick(now):
                moved = True
            if not ap.halted and ap_step(now):
                moved = True
            if not ep.halted and ep_step(now):
                moved = True
            if frames:  # resolution has nothing to do with no frame open
                spec.on_cycle(self, now)
            if metrics is not None:
                metrics.on_cycle(self, now)
            self.cycle = now + 1
            # the first cycle of a call opens the watchdog window and
            # never jumps, whatever it did
            if moved or now == start:
                last_progress_cycle = now + 1
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
                    self._replay_fast(snapshot, count)
            if self.cycle - last_progress_cycle > deadlock_window:
                raise SimulationError(
                    "deadlock: no forward progress for "
                    f"{deadlock_window} cycles at cycle {self.cycle}; "
                    + self.deadlock_report()
                )

    # -- idle-span statistics replay -------------------------------------
    #
    # The snapshot/replay pair below is the *replay contract*: any
    # event-horizon driver that steps this machine — its own loop, or an
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

    def _replay_fast(self, snapshot, count: int) -> None:
        """Advance the clock by ``count`` cycles, applying the statistic
        increments of the just-simulated idle cycle (the delta against
        ``snapshot``) in closed form.

        Sound because a fully-idle cycle leaves every piece of machine
        state untouched except monotone counters: queue contents, PCs,
        stall causes and the stream engine's round-robin pointer are all
        unchanged, so each skipped cycle would have incremented exactly
        the same counters by exactly the same amounts.  Queue occupancy
        is not replayed here: the lazy accounting installed by
        ``QueueFile.begin_lazy_sampling`` covers it by span, since the
        next flush attributes every skipped cycle at the unchanged
        length."""
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
