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

**Cluster event-horizon scheduling.**  The default loop
(``_run_event_horizon``) steps every running node the way
:meth:`SMAMachine._event_horizon_loop` steps one machine — lazy queue
occupancy on a per-node clock cell, the decode-cached fast step paths,
and a horizon asked for only when every running node is blocked — and
jumps the shared clock to the cluster horizon, replaying each
still-running node's skipped span through its own
``stall_snapshot``/``_replay_fast`` pair.  That replay contract never
touches the memory model, so a non-owning node replays exactly like a
standalone machine.  Finished nodes are frozen (naive ticking does not
step them either), and the shared memory needs no replay of its own: a
cycle in which every node is idle issues no accesses, so bank-free
times and port counters are static until the next completion.
Everything stays bit-identical to naive ticking (property-tested in
``tests/test_cluster_fast_forward.py`` and
``tests/test_event_horizon.py``), including per-node metrics buckets —
``attach_metrics`` works in cluster mode because the node classifiers
replay in closed form just as they do standalone.  The naive loop
(``_run_naive``) is the reference: every cycle it ticks the memory and
steps every running node through its reference ``step_cycle``.  ``run``
picks its loop through the nodes' :meth:`SMAMachine._effective_scheduler`.

Used by experiment R-F8 (`bench_fig8_multiprocessor.py`).
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

from ..config import SMAConfig
from ..errors import SimulationError
from ..isa import Program
from ..memory import BankedMemory, MainMemory
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
        Like the single-machine case, attaching metrics keeps the
        cluster's event-horizon loop jumping — node classifiers and
        samplers replay in closed form.
        """
        return [node.attach_metrics() for node in self.nodes]

    def done(self) -> bool:
        return all(n.done() for n in self.nodes) and self.banked.quiescent()

    def _step_all(self) -> None:
        """Simulate one cluster cycle: memory tick, then every running
        node's reference ``step_cycle``, in an order that rotates with
        the cycle number.

        A node whose ``done()`` flips during (or before) its step is
        recorded in ``finish_cycles`` *immediately* at the current cycle.
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
            node.step_cycle(tick_memory=False)
            if self.finish_cycles[index] is None and node.done():
                self.finish_cycles[index] = node.cycle
        self.cycle = now + 1

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
        scheduler: str | None = None,
    ) -> ClusterResult:
        """Run every node to completion under shared-memory contention.

        ``scheduler`` picks the loop exactly as in :meth:`SMAMachine.run`,
        through each node's :meth:`SMAMachine._effective_scheduler`
        (where it also builds its speculation engine).  Cycle counts and
        every per-node statistic are bit-identical under both loops.
        """
        for node in self.nodes:
            # the nodes share this memory and configuration, so they all
            # narrow alike
            scheduler = node._effective_scheduler(scheduler)
        loop = (self._run_event_horizon if scheduler == "event-horizon"
                else self._run_naive)
        loop(max_cycles, deadlock_window)
        return self._collect()

    def _run_event_horizon(
        self, max_cycles: int, deadlock_window: int
    ) -> None:
        """Contract-driven cluster loop: every running node steps the way
        :meth:`SMAMachine._event_horizon_loop` steps one machine.

        * **Lazy occupancy per node.**  Each node runs inside its own
          :meth:`SMAMachine.lazy_occupancy` bracket on its own clock
          cell.  A cell advances only while its node runs, and the
          bracket closes at ``node.cycle``, so a node that finishes
          early stops accruing queue samples at its own finish cycle —
          exactly where naive ticking stops sampling it.
        * **Fast steps.**  Every node steps through
          ``tick_fast``/``step_fast``, each call skipped when its
          component is quiet; those hide poisoned heads and call the
          speculation hooks, and a speculative node resolves
          predictions after both processors step.  Metrics keep their
          per-cycle hook, and jumps replay through each node's
          ``_replay_fast``.
        * **Gated horizon.**  A jump is only *planned* when this cycle
          delivered no completion and every running node's AP and EP
          ended their last step halted or stalled; it is only *taken*
          after one live template cycle in which no node's step made
          progress, with the horizon recomputed from the post-template
          stall causes — so a contract miss costs a jump, never a
          wrong one.  Progress is what the steps return (see
          :meth:`SMAMachine._event_horizon_loop`): a cycle with no step
          returning true is one in which :meth:`_progress_state` stands
          still.

        Everything stays bit-identical to naive ticking, including the
        rotating service order, per-node finish cycles and the deadlock
        and cycle-budget exits.
        """
        with ExitStack() as stack:
            clocks = []
            for node in self.nodes:
                clock = [node.cycle]
                stack.enter_context(node.lazy_occupancy(clock))
                clocks.append(clock)
            self._event_horizon_loop(max_cycles, deadlock_window, clocks)

    def _event_horizon_loop(
        self, max_cycles: int, deadlock_window: int, clocks: list
    ) -> None:
        """The body of :meth:`_run_event_horizon`; ``clocks[i]`` is node
        ``i``'s lazy-occupancy clock cell."""
        nodes = self.nodes
        count = len(nodes)
        finish = self.finish_cycles
        comps = self.banked._completions
        mstats = self.banked.stats
        pop = heapq.heappop
        horizon = self.next_event_time
        # one lane of hoisted per-node locals per running node; a
        # finished node's lane becomes None
        lanes: list = []
        for index, (node, clock) in enumerate(zip(nodes, clocks)):
            if node.done():
                lanes.append(None)
                continue
            spec = node._spec
            engine = node.engine
            ap = node.ap
            ep = node.ep
            lanes.append((
                index, node, clock, ap, ep,
                node.queues.store_addr._slots, engine._streams,
                node.store_unit.tick_fast, engine.tick_fast,
                ap.step_fast, ep.step_fast,
                spec, spec.stack if spec is not None else (), node._metrics,
            ))
        live = [lane for lane in lanes if lane is not None]
        # the rotating service window for cycle ``now`` is
        # order[now % count:now % count + count]
        order = lanes + lanes
        start = self.cycle
        last_progress = start
        while live or comps:
            now = self.cycle
            if now >= max_cycles:
                raise SimulationError(f"exceeded cycle budget {max_cycles}")
            delivered = False
            while comps and comps[0][0] <= now:
                # fill the slot the completion entry names, in place
                _, _, queue, slot, value = pop(comps)
                slot.filled = True
                slot.value = value
                queue.stats.pushes += 1
                mstats.completions += 1
                delivered = True
            snapshots = None
            if not delivered:
                for lane in live:
                    ap = lane[3]
                    ep = lane[4]
                    if not (
                        (ap.halted or ap._stalled_on is not None)
                        and (ep.halted or ep._stalled_on is not None)
                    ):
                        break
                else:
                    t = horizon(now)
                    if t is None or t > now + 1:
                        snapshots = [
                            (lane[1], lane[1].stall_snapshot())
                            for lane in live
                        ]
            rotation = now % count
            moved = False
            for lane in order[rotation:rotation + count]:
                if lane is None:
                    continue
                (index, node, clock, ap, ep, saq_slots, streams,
                 su_tick, engine_tick, ap_step, ep_step,
                 spec, frames, metrics) = lane
                clock[0] = now
                if saq_slots and su_tick(now):
                    moved = True
                if streams and engine_tick(now):
                    moved = True
                if not ap.halted and ap_step(now):
                    moved = True
                if not ep.halted and ep_step(now):
                    moved = True
                if frames:
                    spec.on_cycle(node, now)
                if metrics is not None:
                    metrics.on_cycle(node, now)
                node.cycle = now + 1
                if (
                    ap.halted and ep.halted and not streams
                    and not saq_slots and not frames
                ):
                    finish[index] = now + 1
                    lanes[index] = None
                    order = lanes + lanes
                    live = [lane for lane in lanes if lane is not None]
            self.cycle = now + 1
            # the first cycle of a call opens the watchdog window and
            # never jumps, whatever it did
            if moved or now == start:
                last_progress = now + 1
                continue
            if snapshots is not None:
                target = horizon(self.cycle)
                bound = last_progress + deadlock_window + 1
                if target is None or target > bound:
                    target = bound
                if target > max_cycles:
                    target = max_cycles
                skipped = target - self.cycle
                if skipped > 0:
                    for node, snapshot in snapshots:
                        node._replay_fast(snapshot, skipped)
                    self.cycle += skipped
            if self.cycle - last_progress > deadlock_window:
                raise SimulationError(
                    f"cluster deadlock at cycle {self.cycle}: "
                    + self._deadlock_reports()
                )

    def _run_naive(self, max_cycles: int, deadlock_window: int) -> None:
        """The reference loop: :meth:`_step_all` every cluster cycle."""
        last_state: tuple = ()
        last_progress = 0
        while not self.done():
            if self.cycle >= max_cycles:
                raise SimulationError(f"exceeded cycle budget {max_cycles}")
            self._step_all()
            state = self._progress_state()
            if state != last_state:
                last_state = state
                last_progress = self.cycle
            elif self.cycle - last_progress > deadlock_window:
                raise SimulationError(
                    f"cluster deadlock at cycle {self.cycle}: "
                    + self._deadlock_reports()
                )

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
            finish_cycles=list(self.finish_cycles),
        )

    def _deadlock_reports(self) -> str:
        return "; ".join(
            f"node{i}: {n.deadlock_report()}"
            for i, n in enumerate(self.nodes)
        )
