"""SMA multiprocessor cluster (future-work extension).

A natural growth path for a decoupled node is replication: several SMA
processor pairs sharing one banked main memory.  Each node keeps its own
queues, stream engine and store unit — the *only* shared resource is the
memory, so the interesting question the cluster answers is **how much of a
node's standalone performance survives memory interference**, as a
function of the interleaving degree and the nodes' access patterns.

The cluster owns the memory tick: every simulated cycle it delivers
completions once, then steps each node (round-robin order rotates each
cycle so no node gets a standing priority at the memory port).  Nodes run
disjoint address ranges — the runner lays each kernel out in its own
region — so no coherence protocol is needed; the contention being studied
is bandwidth, not sharing.

**Cluster cycle fast-forward.**  The latency-dominated regime that makes
single-machine fast-forward pay off (see :mod:`repro.core.machine`) is
*worse* in a cluster: contention stretches every memory round-trip, so a
larger fraction of cycles are jointly idle — every node stalled on a
pending completion.  ``run`` detects joint idleness the same way the
machine does (two consecutive cycles in which no node retired an
instruction, issued a request or committed a store, and no completion
fired), then jumps the shared clock to ``banked.next_event_time`` and
replays each still-running node's skipped-cycle statistics in closed form
through the node's own ``stall_snapshot``/``replay_stall_cycles`` pair —
the same replay contract ``SMAMachine._run`` honors, which never touches
the memory model, so a non-owning node replays exactly like a standalone
machine.  Finished nodes are frozen (naive ticking does not step them
either), and the shared memory needs no replay of its own: a jointly-idle
cycle issues no accesses, so bank-free times and port counters are static
until the next completion.  Everything stays bit-identical to naive
ticking (property-tested in ``tests/test_cluster_fast_forward.py``),
including per-node metrics buckets — ``attach_metrics`` works in cluster
mode because the node classifiers replay in closed form just as they do
standalone.

Used by experiment R-F8 (`bench_fig8_multiprocessor.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..config import SMAConfig
from ..errors import SimulationError
from ..isa import Program
from ..memory import BankedMemory, MainMemory
from . import machine as machine_mod
from .machine import SMAMachine, SMAResult


@dataclass
class ClusterResult:
    """Per-node results plus shared-memory contention statistics."""

    cycles: int
    nodes: list[SMAResult]
    bank_conflicts: int
    port_rejects: int
    memory_utilization: float
    #: cycle at which each node transitioned to done (== elapsed cycles,
    #: exact even across fast-forward jumps)
    finish_cycles: list[int] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"cluster cycles      {self.cycles}"]
        for i, node in enumerate(self.nodes):
            lines.append(
                f"node {i}: {node.cycles} cycles, "
                f"{node.memory_reads + node.memory_writes} memory ops"
            )
        lines.append(f"bank conflicts      {self.bank_conflicts}")
        lines.append(f"memory utilization  {self.memory_utilization:.3f}")
        return "\n".join(lines)

    def contention(self) -> dict:
        """Shared-memory contention section (JSON-serializable)."""
        return {
            "bank_conflicts": self.bank_conflicts,
            "port_rejects": self.port_rejects,
            "memory_utilization": self.memory_utilization,
        }


class SMACluster:
    """N SMA nodes contending for one banked memory."""

    def __init__(
        self,
        programs: list[tuple[Program, Program]],
        config: SMAConfig | None = None,
    ):
        if not programs:
            raise ValueError("cluster needs at least one node")
        self.config = config or SMAConfig()
        self.memory = MainMemory(self.config.memory.size)
        if self.config.faults is not None:
            from ..memory.banks import FaultyMemory

            self.banked = FaultyMemory(
                self.memory, self.config.memory, self.config.faults
            )
        else:
            self.banked = BankedMemory(self.memory, self.config.memory)
        node_config = replace(self.config)
        self.nodes = [
            SMAMachine(ap, ep, node_config, shared_memory=self.banked)
            for ap, ep in programs
        ]
        self.cycle = 0
        #: cycle each node finished at (None while running)
        self.finish_cycles: list[int | None] = [None] * len(self.nodes)

    def load_array(self, base: int, values) -> None:
        """Stage workload data into the shared memory."""
        self.memory.load_array(base, values)

    def dump_array(self, base: int, count: int):
        return self.memory.dump_array(base, count)

    def attach_metrics(self):
        """Attach a stall-attribution metrics layer to every node.

        Returns the list of per-node :class:`SMAMachineMetrics`.  Each
        node gets its own registry (counter names collide across nodes
        otherwise); the shared memory's counters are published into every
        node's registry, getter-based over the one shared stats object.
        Like the single-machine case, attaching metrics keeps cluster
        fast-forward enabled — node classifiers and samplers replay in
        closed form.
        """
        return [node.attach_metrics() for node in self.nodes]

    def done(self) -> bool:
        return all(n.done() for n in self.nodes) and self.banked.quiescent()

    def _step_all(self, steppers: list | None = None) -> None:
        """Simulate one cluster cycle: memory tick, then every running
        node, in an order that rotates with the cycle number.

        A node whose ``done()`` flips during (or before) its step is
        recorded in ``finish_cycles`` *immediately* at the current cycle.
        (The old code deferred recording to the node's next visit, one
        cycle late under naive ticking and a whole jump late under
        fast-forward.)

        ``steppers``, when given, holds one compiled per-node step
        function (or ``None``) per node — the codegen scheduler's
        specialized replacement for ``step_cycle(tick_memory=False)``.
        """
        now = self.cycle
        self.banked.tick(now)
        count = len(self.nodes)
        # rotate service order so the memory port is shared fairly; the
        # rotation is a pure function of the cycle number, so it is
        # unaffected by clock jumps
        rotation = now % count
        for offset in range(count):
            index = (rotation + offset) % count
            node = self.nodes[index]
            if node.done():
                if self.finish_cycles[index] is None:
                    # finished via this cycle's memory tick (the final
                    # completion drained the last pending access)
                    self.finish_cycles[index] = now
                continue
            node.cycle = now
            fn = steppers[index] if steppers is not None else None
            if fn is not None:
                fn(node, now)
            else:
                node.step_cycle(tick_memory=False)
            if self.finish_cycles[index] is None and node.done():
                self.finish_cycles[index] = node.cycle
        self.cycle = now + 1

    def _compiled_steppers(self) -> list | None:
        """Per-node compiled step functions for the codegen scheduler.

        Entries are ``None`` for nodes the emitter cannot specialize
        (those fall back to the interpreted ``step_cycle``); the whole
        list is ``None`` — reverting the run to the event-horizon
        template stepping — when a memory observer is attached, because
        generated bodies read the functional store directly and would
        bypass the observer hook.
        """
        if self.memory.observer is not None:
            return None
        from ..codegen import compiled_step_for

        steppers = [compiled_step_for(node) for node in self.nodes]
        return [art.fn if art is not None else None for art in steppers]

    def step_cycles(self, count: int) -> int:
        """Step up to ``count`` cluster cycles (stopping early when every
        node is done); returns the number actually simulated."""
        stepped = 0
        while stepped < count and not self.done():
            self._step_all()
            stepped += 1
        return stepped

    # -- checkpoint / restore --------------------------------------------

    def snapshot(self) -> dict:
        """Cluster checkpoint: per-node machine snapshots composed with
        the shared clock, functional store and banked timing state (see
        :mod:`repro.core.checkpoint`)."""
        from .checkpoint import snapshot_cluster

        return snapshot_cluster(self)

    def restore(self, data: dict) -> None:
        """Inverse of :meth:`snapshot` (fingerprint-checked)."""
        from .checkpoint import restore_cluster

        restore_cluster(self, data)

    def state_digest(self) -> str:
        """Deterministic sha256 over the canonical snapshot encoding."""
        from .checkpoint import digest

        return digest(self.snapshot())

    def _progress_state(self) -> tuple[int, ...]:
        """Changes iff any node made forward progress or memory moved."""
        return tuple(
            part for node in self.nodes for part in node.progress_state()
        ) + (self.banked.stats.reads + self.banked.stats.writes,)

    def next_event_time(self, now: int) -> int | None:
        """Event-horizon contract for the whole cluster: the earliest
        cycle at which *any* node can make externally visible progress,
        i.e. the minimum over the running nodes' own horizons (each of
        which already includes the shared memory's earliest pending
        completion).  The explicit completion clamp covers the tail case
        where every node has halted but shared-memory traffic is still
        draining."""
        best = self.banked.next_completion_time(now)
        for node in self.nodes:
            if node.done():
                continue
            t = node.next_event_time(now)
            if t is not None and (best is None or t < best):
                best = t
        return best

    def run(
        self,
        max_cycles: int = 10_000_000,
        deadlock_window: int = 10_000,
        fast_forward: bool | None = None,
        scheduler: str | None = None,
    ) -> ClusterResult:
        """Run every node to completion under shared-memory contention.

        ``scheduler`` picks the loop exactly as in
        :meth:`SMAMachine.run` — any key of
        :data:`SMAMachine.SCHEDULERS` (``"naive"`` / ``"joint-idle"`` /
        ``"event-horizon"`` / ``"codegen"``); when ``None`` it is
        derived from ``fast_forward``, which itself defaults to the
        process-wide :data:`repro.core.machine.FAST_FORWARD`.  The
        codegen scheduler runs the event-horizon loop with each node's
        interpreted ``step_cycle`` replaced by its compiled
        program-specialized step function (unspecializable nodes fall
        back per node).  Cycle counts and every per-node statistic are
        bit-identical across all four.  Fault injection and speculation
        narrow the choice as for one machine
        (:meth:`SMAMachine._effective_scheduler`).
        """
        if scheduler is None:
            if fast_forward is None:
                fast_forward = machine_mod.FAST_FORWARD
            scheduler = "event-horizon" if fast_forward else "naive"
        elif scheduler not in SMAMachine.SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; expected one of "
                + ", ".join(SMAMachine.SCHEDULERS)
            )
        for node in self.nodes:
            # the nodes share this memory and configuration, so they all
            # narrow alike; each builds its own speculation engine
            scheduler = node._effective_scheduler(scheduler)
        if scheduler == "codegen":
            self._run_event_horizon(
                max_cycles, deadlock_window,
                steppers=self._compiled_steppers(),
            )
        elif scheduler == "event-horizon":
            self._run_event_horizon(max_cycles, deadlock_window)
        else:
            self._run_joint_idle(
                max_cycles, deadlock_window, scheduler == "joint-idle"
            )
        return self._collect()

    def _run_event_horizon(
        self, max_cycles: int, deadlock_window: int,
        steppers: list | None = None,
    ) -> None:
        """Contract-driven cluster loop, subsuming the two-consecutive-
        idle-cycle heuristic of :meth:`_run_joint_idle`.

        Each iteration asks the cluster horizon whether anything can move
        before ``now + 2``; if not, it snapshots every running node,
        steps one live template cycle, confirms joint idleness with the
        progress tuple, recomputes the horizon from the post-template
        stall causes (pre-step flags can be stale) and replays the
        skipped span through every running node's
        ``replay_stall_cycles`` — the same replay contract the
        single-machine loops honor, so everything stays bit-identical to
        naive ticking.  Nodes step through their reference
        ``step_cycle`` path (per-cycle queue sampling): the cluster's
        win is jump *eligibility* — one idle cycle instead of two, and
        contract-verified rather than inferred — not per-cycle cost.
        The codegen scheduler reuses this loop with ``steppers`` — each
        node's compiled program-specialized step function — attacking
        exactly that per-cycle cost while inheriting the jump logic.
        """
        last_state: tuple = ()
        last_progress = 0
        while not self.done():
            now = self.cycle
            if now >= max_cycles:
                raise SimulationError(
                    f"exceeded cycle budget {max_cycles}"
                )
            snapshots = None
            t = self.next_event_time(now)
            if t is None or t > now + 1:
                snapshots = [
                    (node, node.stall_snapshot())
                    for node in self.nodes
                    if not node.done()
                ]
            self._step_all(steppers)
            state = self._progress_state()
            if state != last_state:
                last_state = state
                last_progress = self.cycle
                continue
            if snapshots is not None:
                target = self.next_event_time(self.cycle)
                bound = last_progress + deadlock_window + 1
                if target is None or target > bound:
                    target = bound
                if target > max_cycles:
                    target = max_cycles
                count = target - self.cycle
                if count > 0:
                    for node, snapshot in snapshots:
                        node.replay_stall_cycles(snapshot, count)
                    self.cycle += count
            if self.cycle - last_progress > deadlock_window:
                raise SimulationError(
                    f"cluster deadlock at cycle {self.cycle}: "
                    + self._deadlock_reports()
                )

    def _run_joint_idle(
        self,
        max_cycles: int,
        deadlock_window: int,
        fast_forward: bool,
    ) -> None:
        """The PR 3 loop: naive ticking, optionally jumping the shared
        clock after two consecutive jointly-idle cycles."""
        banked = self.banked
        last_state: tuple = ()
        last_progress = 0
        prev_idle = False  # previous cycle was jointly idle
        while not self.done():
            if self.cycle >= max_cycles:
                raise SimulationError(f"exceeded cycle budget {max_cycles}")
            if prev_idle and fast_forward:
                # every node is in a steady stall: simulate one more
                # cycle as the per-node replay template, then jump the
                # shared clock to the next memory event
                running = [
                    (node, node.stall_snapshot())
                    for node in self.nodes
                    if not node.done()
                ]
                pending_before = banked.pending_completions
                self._step_all()
                state = self._progress_state()
                if (
                    state == last_state
                    and banked.pending_completions == pending_before
                ):
                    # no node moved and nothing completed: every cycle
                    # until the next memory event repeats this one
                    # exactly, on every node
                    horizon = min(
                        last_progress + deadlock_window + 1, max_cycles
                    )
                    target = banked.next_event_time(self.cycle - 1)
                    if target is None or target > horizon:
                        target = horizon
                    skipped = target - self.cycle
                    if skipped > 0:
                        for node, snapshot in running:
                            node.replay_stall_cycles(snapshot, skipped)
                        self.cycle += skipped
                    if self.cycle - last_progress > deadlock_window:
                        raise SimulationError(
                            f"cluster deadlock at cycle {self.cycle}: "
                            + self._deadlock_reports()
                        )
                    continue
                # the candidate cycle made progress somewhere — fall
                # through to the ordinary bookkeeping below
            else:
                self._step_all()
            state = self._progress_state()
            if state != last_state:
                last_state = state
                last_progress = self.cycle
                prev_idle = False
                p_pending = banked.pending_completions
            else:
                if self.cycle - last_progress > deadlock_window:
                    raise SimulationError(
                        f"cluster deadlock at cycle {self.cycle}: "
                        + self._deadlock_reports()
                    )
                # a cycle that only delivered a completion is not idle:
                # the filled slot can unblock a node next cycle
                pending = banked.pending_completions
                prev_idle = pending == p_pending
                p_pending = pending

    def _collect(self) -> ClusterResult:
        for index, node in enumerate(self.nodes):
            if self.finish_cycles[index] is None:
                self.finish_cycles[index] = node.cycle
        mstats = self.banked.stats
        cycles = max(self.cycle, 1)
        return ClusterResult(
            cycles=self.cycle,
            nodes=[n.collect_result() for n in self.nodes],
            bank_conflicts=mstats.bank_conflicts,
            port_rejects=mstats.port_rejects,
            memory_utilization=mstats.utilization(
                cycles, self.config.memory.num_banks
            ),
            finish_cycles=[
                finish if finish is not None else self.cycle
                for finish in self.finish_cycles
            ],
        )

    def _deadlock_reports(self) -> str:
        return "; ".join(
            f"node{i}: {n.deadlock_report()}"
            for i, n in enumerate(self.nodes)
        )
