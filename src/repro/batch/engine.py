"""Structure-of-arrays lockstep simulator over many machine configs.

One *lane* is one complete SMA machine — AP, EP, stream engine, store
unit, banked memory — described by its own :class:`repro.config.SMAConfig`
(latency, bank count/busy, queue depths).  All lanes run the same
access/execute program pair on the same input data, so a sweep grid of
``N`` timing points becomes ``N`` lanes stepped together: every piece of
architectural state is one numpy array with a leading lane axis, and each
component's per-cycle action is a handful of masked array updates instead
of ``N`` interpreter dispatches.

**Bit-exactness contract.**  For every lane, all statistics the harness
reports (:func:`repro.harness.jobs._run_sma` keys: cycles, instruction
counts, stall-cause cycle counts, LOD episodes, occupancy, memory
traffic) and the final memory image are identical to running that lane's
config through ``SMAMachine.run(scheduler="naive")``.  The Hypothesis
suite in ``tests/test_batch_equivalence.py`` holds this together, the
same way the equivalence suites pin the fast schedulers to naive
ticking.

Three structural ideas:

* **Masked divergent control** — lanes share a program but not a pc
  (timing divergence moves them apart).  Each cycle the processors group
  live lanes by pc; the instruction at a pc is a constant for the whole
  group, so its semantics become one vectorized update on the group's
  lane-index array.
* **Per-lane clocks with idle jumps** — lanes are independent machines,
  so each carries its own ``now``.  A lane whose cycle made no progress
  and delivered no completion is in a steady stall: every cycle until
  its next memory event (earliest in-flight load maturing, earliest busy
  bank freeing) repeats the same stall bit-for-bit, so the lane's clock
  jumps there directly and the per-cycle statistic increments are
  replayed in closed form — the same argument as the scalar
  event-horizon replay (``SMAMachine._replay_fast``), applied per lane.
* **Lane freeze** — a finished lane (both processors halted, streams
  drained, SAQ empty, no loads in flight) is removed from the active
  index and costs nothing for the rest of the batch.

Timing-model scope (enforced by :mod:`repro.batch.dispatch`): one memory
port (``accepts_per_cycle == 1``), one stream issue per cycle, no fault
injection, no attached metrics.  Within a cycle the single port is
threaded through the components in machine order (store unit, stream
engine, AP) as one boolean per lane.

In-flight loads need no completion heap: per lane, requests issue at
most one per cycle and share one latency, so fills mature in issue
order — a ring of fill times per lane replaces the heap, and a queue
slot is *filled* exactly when its recorded fill time is ``<= now``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SMAConfig
from ..errors import SimulationError
from ..isa import Op, Program
from . import decode as D

#: sentinel for "no stall cause" / empty times
_NONE = -1
_BIG = np.int64(1) << 62


def _alu_eval(op: Op, args: list[np.ndarray]) -> np.ndarray:
    """Vectorized twin of :data:`repro.isa.ALU_FUNCS`.

    Each branch reproduces the Python-float semantics of the scalar
    table exactly (IEEE-754 double throughout); the ones where numpy's
    native ufunc could differ (``min``/``max`` argument order on ties,
    ``%`` sign correction) are spelled out.
    """
    if op is Op.ADD:
        return args[0] + args[1]
    if op is Op.SUB:
        return args[0] - args[1]
    if op is Op.MUL:
        return args[0] * args[1]
    if op is Op.DIV:
        if np.any(args[1] == 0):
            raise ZeroDivisionError("DIV by zero in simulated program")
        return args[0] / args[1]
    if op is Op.MIN:  # python min(a, b): b if b < a else a
        return np.where(args[1] < args[0], args[1], args[0])
    if op is Op.MAX:  # python max(a, b): b if b > a else a
        return np.where(args[1] > args[0], args[1], args[0])
    if op is Op.MOD:
        a, b = args
        if np.any(b == 0):
            raise ZeroDivisionError("MOD by zero in simulated program")
        # CPython float %: fmod, then fold into the divisor's sign
        r = np.fmod(a, b)
        fix = (r != 0) & ((r < 0) != (b < 0))
        r = np.where(fix, r + b, r)
        return r
    if op is Op.ABS:
        return np.abs(args[0])
    if op is Op.NEG:
        return -args[0]
    if op is Op.SQRT:
        if np.any(args[0] < 0):
            raise ValueError("math domain error")
        return np.sqrt(args[0])
    if op is Op.FLOOR:
        return np.floor(args[0])
    if op is Op.MOV:
        return args[0]
    if op is Op.CMPLT:
        return np.where(args[0] < args[1], 1.0, 0.0)
    if op is Op.CMPLE:
        return np.where(args[0] <= args[1], 1.0, 0.0)
    if op is Op.CMPEQ:
        return np.where(args[0] == args[1], 1.0, 0.0)
    if op is Op.CMPNE:
        return np.where(args[0] != args[1], 1.0, 0.0)
    assert op is Op.SEL
    return np.where(args[0] != 0, args[1], args[2])


@dataclass
class LaneStats:
    """Per-lane statistic arrays collected by one batch run.

    ``lane_dict(i)`` assembles the harness result-dict fragment for lane
    ``i`` with the exact key set, value types and stall-dict key order
    (first-occurrence order) of the scalar job path.
    """

    cycles: np.ndarray
    ap_instructions: np.ndarray
    ep_instructions: np.ndarray
    ap_stalls: np.ndarray        # [lanes, len(D.AP_CAUSES)]
    ap_first: np.ndarray         # first cycle each cause was charged
    ep_stalls: np.ndarray        # [lanes, len(D.EP_CAUSES)]
    ep_first: np.ndarray
    lod_events: np.ndarray
    memory_reads: np.ndarray
    memory_writes: np.ndarray
    occupancy_sum: np.ndarray
    occupancy_max: np.ndarray

    def lane_dict(self, i: int) -> dict:
        ap_order = np.argsort(self.ap_first[i], kind="stable")
        ap_stalls = {
            D.AP_CAUSES[c]: int(self.ap_stalls[i, c])
            for c in ap_order
            if self.ap_stalls[i, c] > 0
        }
        ep_order = np.argsort(self.ep_first[i], kind="stable")
        ep_stalls = {
            D.EP_CAUSES[c]: int(self.ep_stalls[i, c])
            for c in ep_order
            if self.ep_stalls[i, c] > 0
        }
        cycles = int(self.cycles[i])
        lod_stall_cycles = sum(
            int(self.ap_stalls[i, c]) for c in D.LOD_CAUSES
        )
        return {
            "cycles": cycles,
            "ap_instructions": int(self.ap_instructions[i]),
            "ep_instructions": int(self.ep_instructions[i]),
            "ap_stalls": ap_stalls,
            "ep_stalls": ep_stalls,
            "ep_total_stalls": sum(ep_stalls.values()),
            "mean_outstanding_loads":
                int(self.occupancy_sum[i]) / max(cycles, 1),
            "max_outstanding_loads": int(self.occupancy_max[i]),
            "lod_events": int(self.lod_events[i]),
            "lod_stall_cycles": lod_stall_cycles,
            "memory_reads": int(self.memory_reads[i]),
            "memory_writes": int(self.memory_writes[i]),
        }


@dataclass
class BatchOutcome:
    """Everything a batch run produced: stats plus final memory images."""

    stats: LaneStats
    memory: np.ndarray  # [lanes, words]

    def dump_array(self, lane: int, base: int, count: int) -> np.ndarray:
        out = np.zeros(count, dtype=np.float64)
        have = self.memory[lane, base : base + count]
        out[: have.shape[0]] = have
        return out


class LaneEngine:
    """The SoA interpreter: state arrays plus the per-cycle step."""

    def __init__(
        self,
        access_program: Program,
        execute_program: Program,
        configs: list[SMAConfig],
        memory_image: np.ndarray,
        logical_size: int | None = None,
    ):
        L = len(configs)
        if L == 0:
            raise SimulationError("batch run needs at least one lane")
        qlay = D.QueueLayout.from_config(configs[0])
        for cfg in configs:
            if D.QueueLayout.from_config(cfg) != qlay:
                raise SimulationError(
                    "batch lanes must share the structural queue layout"
                )
            if cfg.memory.accepts_per_cycle != 1:
                raise SimulationError(
                    "batch engine models one memory port per cycle"
                )
            if cfg.stream_issue_per_cycle != 1:
                raise SimulationError(
                    "batch engine models one stream issue per cycle"
                )
            if cfg.faults is not None:
                raise SimulationError(
                    "batch engine does not model fault injection"
                )
        self.qlay = qlay
        # kept for the batch-codegen cache key (program text is what
        # the emitter specializes on)
        self.access_program = access_program
        self.execute_program = execute_program
        self.ap_prog = D.decode_access(access_program, qlay)
        self.ep_prog = D.decode_execute(execute_program, qlay)
        self.ap_len = len(self.ap_prog)
        self.ep_len = len(self.ep_prog)
        NQ = qlay.total
        self.NQ = NQ
        self.NL = qlay.num_load

        i64 = np.int64
        caps = np.array(
            [qlay.capacities(cfg) for cfg in configs], dtype=i64
        )
        CAP = int(caps.max())
        self.latency = np.array(
            [cfg.memory.latency for cfg in configs], dtype=i64
        )
        self.bank_busy = np.array(
            [cfg.memory.bank_busy for cfg in configs], dtype=i64
        )
        self.nbanks = np.array(
            [cfg.memory.num_banks for cfg in configs], dtype=i64
        )
        NB = int(self.nbanks.max())
        self.max_streams = int(configs[0].max_streams)
        for cfg in configs:
            if cfg.max_streams != self.max_streams:
                raise SimulationError(
                    "batch lanes must share max_streams"
                )
        S = self.max_streams
        # in-flight loads are bounded by the reserved slots they occupy
        # (load + index queues); the +1 keeps the ring's head != tail
        P = int(
            (caps[:, : qlay.num_load].sum(axis=1)
             + caps[:, qlay.iq(0) : qlay.saq].sum(axis=1)).max()
        ) + 1

        self.now = np.zeros(L, dtype=i64)
        self.active = np.ones(L, dtype=bool)
        self.cycles = np.zeros(L, dtype=i64)
        self.last_progress = np.zeros(L, dtype=i64)

        self.ap_pc = np.zeros(L, dtype=i64)
        self.ap_halt = np.zeros(L, dtype=bool)
        self.ap_regs = np.zeros((L, 32), dtype=np.float64)
        self.ap_stalled = np.full(L, _NONE, dtype=i64)
        self.ep_pc = np.zeros(L, dtype=i64)
        self.ep_halt = np.zeros(L, dtype=bool)
        self.ep_regs = np.zeros((L, 32), dtype=np.float64)
        self.ep_stalled = np.full(L, _NONE, dtype=i64)

        self.q_vals = np.zeros((L, NQ, CAP), dtype=np.float64)
        self.q_fill = np.full((L, NQ, CAP), _BIG, dtype=i64)
        self.q_head = np.zeros((L, NQ), dtype=i64)
        self.q_count = np.zeros((L, NQ), dtype=i64)
        self.q_cap = caps
        self.saq_dqi = np.zeros((L, CAP), dtype=i64)
        #: per-queue occupancy high-water marks, maintained by the
        #: compiled stepper when ``track_saturation`` is set; the
        #: saturation-collapse planner (:mod:`repro.batch.dispatch`)
        #: uses them to prove deep-queue lanes bit-identical to a probe
        self.q_peak = np.zeros((L, NQ), dtype=i64)
        self.track_saturation = False

        self.st_kind = np.zeros((L, S), dtype=i64)
        self.st_base = np.zeros((L, S), dtype=i64)
        self.st_stride = np.zeros((L, S), dtype=i64)
        self.st_count = np.zeros((L, S), dtype=i64)
        self.st_issued = np.zeros((L, S), dtype=i64)
        self.st_tq = np.full((L, S), _NONE, dtype=i64)
        self.st_dq = np.full((L, S), _NONE, dtype=i64)
        self.st_iq = np.full((L, S), _NONE, dtype=i64)
        self.n_live = np.zeros(L, dtype=i64)
        self.rr = np.zeros(L, dtype=i64)
        self.produced_mask = np.zeros(L, dtype=i64)
        self.consumed_mask = np.zeros(L, dtype=i64)

        # only the touched prefix of memory is materialized per lane;
        # bounds checks use the full logical size and the backing grows
        # on demand, so semantics match the scalar flat store exactly
        self.mem = np.broadcast_to(
            memory_image, (L, memory_image.shape[0])
        ).copy()
        self.alloc = memory_image.shape[0]
        self.msize = (
            memory_image.shape[0] if logical_size is None
            else logical_size
        )
        if self.msize < self.alloc:
            raise SimulationError("logical size smaller than image")
        self.bank_free = np.zeros((L, NB), dtype=i64)
        self.port_used = np.zeros(L, dtype=bool)

        self.pend_t = np.zeros((L, P), dtype=i64)
        self.pend_head = np.zeros(L, dtype=i64)
        self.pend_count = np.zeros(L, dtype=i64)
        self.P = P

        self.stats = LaneStats(
            cycles=self.cycles,
            ap_instructions=np.zeros(L, dtype=i64),
            ep_instructions=np.zeros(L, dtype=i64),
            ap_stalls=np.zeros((L, len(D.AP_CAUSES)), dtype=i64),
            ap_first=np.full((L, len(D.AP_CAUSES)), _BIG, dtype=i64),
            ep_stalls=np.zeros((L, len(D.EP_CAUSES)), dtype=i64),
            ep_first=np.full((L, len(D.EP_CAUSES)), _BIG, dtype=i64),
            lod_events=np.zeros(L, dtype=i64),
            memory_reads=np.zeros(L, dtype=i64),
            memory_writes=np.zeros(L, dtype=i64),
            occupancy_sum=np.zeros(L, dtype=i64),
            occupancy_max=np.zeros(L, dtype=i64),
        )
        # per-cycle scratch flags (full-length; reset over the active set)
        self._delivered = np.zeros(L, dtype=bool)
        self._progress = np.zeros(L, dtype=bool)

    # -- small queue helpers (lanes: absolute index array) ---------------

    def _q_ready(self, lanes, qid):
        """head_ready: a head slot exists and its fill time has come."""
        c = self.q_count[lanes, qid] > 0
        h = self.q_head[lanes, qid]
        return c & (self.q_fill[lanes, qid, h] <= self.now[lanes])

    def _q_peek(self, lanes, qid):
        return self.q_vals[lanes, qid, self.q_head[lanes, qid]]

    def _q_pop(self, lanes, qid):
        h = self.q_head[lanes, qid]
        v = self.q_vals[lanes, qid, h]
        self.q_head[lanes, qid] = (h + 1) % self.q_cap[lanes, qid]
        self.q_count[lanes, qid] -= 1
        return v

    def _q_put(self, lanes, qid, values, fill):
        """Append a slot (push when ``fill == now``, reserve otherwise);
        returns the slot index used."""
        slot = (
            self.q_head[lanes, qid] + self.q_count[lanes, qid]
        ) % self.q_cap[lanes, qid]
        self.q_vals[lanes, qid, slot] = values
        self.q_fill[lanes, qid, slot] = fill
        self.q_count[lanes, qid] += 1
        if self.track_saturation:
            np.maximum.at(self.q_peak, (lanes, qid), self.q_count[lanes, qid])
        return slot

    def _as_addr(self, values) -> np.ndarray:
        addr = values.astype(np.int64)
        if np.any(addr != values):
            bad = values[addr != values][0]
            raise SimulationError(f"non-integral address {bad!r}")
        return addr

    def _check_addr(self, addr) -> None:
        if np.any((addr < 0) | (addr >= self.msize)):
            bad = int(addr[(addr < 0) | (addr >= self.msize)][0])
            raise SimulationError(
                f"address {bad} out of range [0, {self.msize})"
            )
        top = int(addr.max(initial=-1))
        if top >= self.alloc:  # rare: touch beyond the staged prefix
            new = min(self.msize, max(top + 1, 2 * self.alloc))
            pad = np.zeros(
                (self.mem.shape[0], new - self.alloc), dtype=np.float64
            )
            self.mem = np.concatenate([self.mem, pad], axis=1)
            self.alloc = new

    # -- stall / retire bookkeeping --------------------------------------

    def _ap_stall(self, lanes, cause: int) -> None:
        st = self.stats
        st.ap_stalls[lanes, cause] += 1
        first = st.ap_first[lanes, cause] == _BIG
        if first.any():
            st.ap_first[lanes[first], cause] = self.now[lanes[first]]
        if cause in D.LOD_CAUSES:
            entering = self.ap_stalled[lanes] != cause
            st.lod_events[lanes[entering]] += 1
        self.ap_stalled[lanes] = cause

    def _ap_retire(self, lanes, new_pc=None) -> None:
        self.stats.ap_instructions[lanes] += 1
        self.ap_stalled[lanes] = _NONE
        if new_pc is None:
            self.ap_pc[lanes] += 1
        else:
            self.ap_pc[lanes] = new_pc
        self._progress[lanes] = True

    def _ep_stall(self, lanes, cause: int) -> None:
        st = self.stats
        st.ep_stalls[lanes, cause] += 1
        first = st.ep_first[lanes, cause] == _BIG
        if first.any():
            st.ep_first[lanes[first], cause] = self.now[lanes[first]]
        self.ep_stalled[lanes] = cause

    def _ep_retire(self, lanes, new_pc=None) -> None:
        self.stats.ep_instructions[lanes] += 1
        self.ep_stalled[lanes] = _NONE
        if new_pc is None:
            self.ep_pc[lanes] += 1
        else:
            self.ep_pc[lanes] = new_pc
        self._progress[lanes] = True

    # -- memory port -----------------------------------------------------

    def _mem_accept(self, lanes, addr):
        """can_accept + accept bookkeeping caller protocol: callers first
        probe with this mask, then apply effects only where True."""
        bank = addr % self.nbanks[lanes]
        ok = ~self.port_used[lanes] & (
            self.bank_free[lanes, bank] <= self.now[lanes]
        )
        return ok, bank

    def _mem_take(self, lanes, bank) -> None:
        """Port/bank bookkeeping for accepted requests."""
        self.port_used[lanes] = True
        self.bank_free[lanes, bank] = (
            self.now[lanes] + self.bank_busy[lanes]
        )

    def _schedule_fill(self, lanes, qid, addr) -> None:
        """Issue a load: reserve the target slot, capture the value now,
        deliver it (slot fill time + pending ring) ``latency`` later."""
        self._check_addr(addr)
        fill = self.now[lanes] + self.latency[lanes]
        self._q_put(lanes, qid, self.mem[lanes, addr], fill)
        slot = (
            self.pend_head[lanes] + self.pend_count[lanes]
        ) % self.P
        self.pend_t[lanes, slot] = fill
        self.pend_count[lanes] += 1
        self.stats.memory_reads[lanes] += 1
        self._progress[lanes] = True

    # -- per-cycle component steps ---------------------------------------

    def _tick_completions(self, ix) -> None:
        """Deliver matured loads (the banked-memory tick).  Fill times
        are strictly increasing per lane (one issue per cycle, constant
        latency), so at most one fill matures per simulated cycle; the
        loop is belt-and-braces."""
        while True:
            cand = ix[self.pend_count[ix] > 0]
            if cand.size == 0:
                return
            heads = self.pend_t[cand, self.pend_head[cand]]
            mature = heads <= self.now[cand]
            if not mature.any():
                return
            ml = cand[mature]
            self.pend_head[ml] = (self.pend_head[ml] + 1) % self.P
            self.pend_count[ml] -= 1
            self._delivered[ml] = True

    def _tick_store_unit(self, ix) -> None:
        SAQ = self.qlay.saq
        lanes = ix[self._q_ready(ix, SAQ)]
        if lanes.size == 0:
            return
        head = self.q_head[lanes, SAQ]
        addr = self.q_vals[lanes, SAQ, head].astype(np.int64)
        dq = self.qlay.sdq(0) + self.saq_dqi[lanes, head]
        ready = self._q_ready(lanes, dq)
        lanes, addr, dq = lanes[ready], addr[ready], dq[ready]
        if lanes.size == 0:
            return
        ok, bank = self._mem_accept(lanes, addr)
        lanes, addr, dq, bank = lanes[ok], addr[ok], dq[ok], bank[ok]
        if lanes.size == 0:
            return
        self._check_addr(addr)
        self._mem_take(lanes, bank)
        self.mem[lanes, addr] = self._q_peek(lanes, dq)
        self.stats.memory_writes[lanes] += 1
        self._q_pop(lanes, SAQ)
        self._q_pop(lanes, dq)
        self._progress[lanes] = True

    def _tick_engine(self, ix) -> None:
        """Stream-engine tick: pick and issue one request per lane.

        ``StreamEngine.tick`` walks the descriptors round-robin, but
        with ``issue_per_cycle == 1`` the walk always stops at its
        first success, its attempt budget covers every live slot, and a
        failed attempt mutates nothing a job result can observe (only
        queue stall *notes*, which the harness never reports).  So the
        walk's outcome is exactly "the first eligible slot in circular
        order from ``rr``" — computed here in one vectorized pass over
        the slot axis instead of sequential per-attempt rounds, with
        the rr bookkeeping reproduced in closed form:
        ``rr' = (rr + fails_before_success [+ 1 if unfinished]) % n``.

        One observable difference is tolerated: a non-integral value at
        the head of an *index* queue raises when its address is
        computed, which the scalar walk would postpone past a cycle
        whose walk stopped earlier — timing of the raise only, and
        only for programs that fault.
        """
        lanes = ix[self.n_live[ix] > 0]
        if lanes.size == 0:
            return
        n = self.n_live[lanes]
        S = int(n.max())
        k = lanes.size

        # eligibility over the full (lane, slot) matrix in one pass
        valid = np.arange(S, dtype=np.int64)[None, :] < n[:, None]
        kind = self.st_kind[lanes, :S]
        base = self.st_base[lanes, :S]
        addr = base + self.st_issued[lanes, :S] * \
            self.st_stride[lanes, :S]
        produces = ((kind == D.S_LOAD) | (kind == D.S_GATHER)) & valid
        indexed = ((kind == D.S_GATHER) | (kind == D.S_SCATTER)) & valid
        ok = valid.copy()
        if indexed.any():
            r, c = np.nonzero(indexed)
            il = lanes[r]
            iq = self.st_iq[il, c]
            ready = self._q_ready(il, iq)
            ok[r[~ready], c[~ready]] = False
            rl, cl = r[ready], c[ready]
            if rl.size:
                a = self._as_addr(self._q_peek(lanes[rl], iq[ready]))
                addr[rl, cl] = base[rl, cl] + a
        if produces.any():
            r, c = np.nonzero(produces)
            pl = lanes[r]
            tq = self.st_tq[pl, c]
            full = self.q_count[pl, tq] >= self.q_cap[pl, tq]
            ok[r[full], c[full]] = False
        stores = valid & ~produces
        if stores.any():
            r, c = np.nonzero(stores & ok)
            if r.size:
                dl = lanes[r]
                ready = self._q_ready(dl, self.st_dq[dl, c])
                ok[r[~ready], c[~ready]] = False
        bank = addr % self.nbanks[lanes][:, None]
        ok &= self.bank_free[lanes[:, None], bank] <= \
            self.now[lanes][:, None]
        ok[self.port_used[lanes]] = False

        # circular walk position of each slot relative to rr % n
        pos = (
            np.arange(S, dtype=np.int64)[None, :]
            - (self.rr[lanes] % n)[:, None]
        ) % n[:, None]
        pos = np.where(ok, pos, _BIG)
        best = pos.argmin(axis=1)
        fails = pos[np.arange(k), best]
        chosen = fails < _BIG
        # all attempts failed: n advances of (rr+1) % n leave rr % n
        nl = lanes[~chosen]
        self.rr[nl] = self.rr[nl] % n[~chosen]
        if not chosen.any():
            return

        rows = np.flatnonzero(chosen)
        gl = lanes[rows]
        gi = best[rows]
        gaddr = addr[rows, gi]
        gprod = produces[rows, gi]
        gind = indexed[rows, gi]
        self._mem_take(gl, bank[rows, gi])
        if gprod.any():
            pl, pa = gl[gprod], gaddr[gprod]
            self._schedule_fill(pl, self.st_tq[pl, gi[gprod]], pa)
        gst = ~gprod
        if gst.any():
            slv, sa = gl[gst], gaddr[gst]
            self._check_addr(sa)
            dq = self.st_dq[slv, gi[gst]]
            self.mem[slv, sa] = self._q_peek(slv, dq)
            self.stats.memory_writes[slv] += 1
            self._q_pop(slv, dq)
            self._progress[slv] = True
        if gind.any():
            ql = gl[gind]
            self._q_pop(ql, self.st_iq[ql, gi[gind]])
        self.st_issued[gl, gi] += 1
        done = self.st_issued[gl, gi] >= self.st_count[gl, gi]
        # rr walked past the failures; an unfinished success steps once
        # more, a finishing success leaves rr at the compacted list
        adv = fails[rows] + ~done
        self.rr[gl] = (self.rr[gl] + adv) % n[rows]
        for lane, slot in zip(gl[done], gi[done]):
            self._remove_stream(int(lane), int(slot))

    def _remove_stream(self, lane: int, slot: int) -> None:
        """Compact one lane's descriptor list (rare: once per finished
        stream), clearing its queue-role bits."""
        n = int(self.n_live[lane])
        tq = int(self.st_tq[lane, slot])
        dq = int(self.st_dq[lane, slot])
        iq = int(self.st_iq[lane, slot])
        if tq >= 0:
            self.produced_mask[lane] &= ~(1 << tq)
        if dq >= 0:
            self.consumed_mask[lane] &= ~(1 << dq)
        if iq >= 0:
            self.consumed_mask[lane] &= ~(1 << iq)
        for field in (
            self.st_kind, self.st_base, self.st_stride, self.st_count,
            self.st_issued, self.st_tq, self.st_dq, self.st_iq,
        ):
            field[lane, slot : n - 1] = field[lane, slot + 1 : n]
        self.n_live[lane] = n - 1

    # -- processors ------------------------------------------------------

    def _read_ap(self, lanes, operand):
        tag, payload = operand
        if tag == D.R:
            return self.ap_regs[lanes, payload]
        return np.full(lanes.size, payload, dtype=np.float64)

    def _step_ap(self, ix) -> None:
        lanes = ix[~self.ap_halt[ix]]
        if lanes.size == 0:
            return
        pcs = self.ap_pc[lanes]
        for p in np.unique(pcs):
            sub = lanes[pcs == p]
            if p >= self.ap_len:
                raise SimulationError("AP ran off the end of program")
            self._ap_exec(sub, self.ap_prog[p], int(p))

    def _ap_exec(self, lanes, entry, p: int) -> None:
        kind = entry[0]
        if kind == D.A_ALU:
            args = [self._read_ap(lanes, s) for s in entry[2]]
            self.ap_regs[lanes, entry[3]] = _alu_eval(entry[1], args)
            self._ap_retire(lanes)
        elif kind == D.A_LDQ:
            qid = entry[1]
            addr = self._as_addr(
                self._read_ap(lanes, entry[2])
                + self._read_ap(lanes, entry[3])
            )
            free = self.q_count[lanes, qid] < self.q_cap[lanes, qid]
            self._ap_stall(lanes[~free], D.C_QUEUE_FULL)
            lanes, addr = lanes[free], addr[free]
            if lanes.size == 0:
                return
            ok, bank = self._mem_accept(lanes, addr)
            self._ap_stall(lanes[~ok], D.C_MEMORY_BUSY)
            lanes, addr, bank = lanes[ok], addr[ok], bank[ok]
            if lanes.size == 0:
                return
            self._mem_take(lanes, bank)
            self._schedule_fill(lanes, qid, addr)
            self._ap_retire(lanes)
        elif kind == D.A_DECBNZ:
            reg = entry[1]
            self.ap_regs[lanes, reg] -= 1
            taken = self.ap_regs[lanes, reg] != 0
            self._ap_retire(
                lanes, np.where(taken, entry[2], p + 1)
            )
        elif kind == D.A_FROMQ:
            qid, cause, dest = entry[1], entry[2], entry[3]
            ready = self._q_ready(lanes, qid)
            self._ap_stall(lanes[~ready], cause)
            lanes = lanes[ready]
            if lanes.size == 0:
                return
            self.ap_regs[lanes, dest] = self._q_pop(lanes, qid)
            self._ap_retire(lanes)
        elif kind == D.A_STADDR:
            SAQ = self.qlay.saq
            free = self.q_count[lanes, SAQ] < self.q_cap[lanes, SAQ]
            self._ap_stall(lanes[~free], D.C_SAQ_FULL)
            lanes = lanes[free]
            if lanes.size == 0:
                return
            addr = self._as_addr(
                self._read_ap(lanes, entry[2])
                + self._read_ap(lanes, entry[3])
            )
            slot = self._q_put(
                lanes, SAQ, addr.astype(np.float64), self.now[lanes]
            )
            self.saq_dqi[lanes, slot] = entry[1]
            self._ap_retire(lanes)
        elif kind == D.A_BQ:
            EBQ = self.qlay.ebq
            ready = self._q_ready(lanes, EBQ)
            self._ap_stall(lanes[~ready], D.C_LOD_EBQ)
            lanes = lanes[ready]
            if lanes.size == 0:
                return
            value = self._q_pop(lanes, EBQ)
            taken = (value != 0) == entry[1]
            self._ap_retire(
                lanes, np.where(taken, entry[2], p + 1)
            )
        elif kind == D.A_BR:
            value = self._read_ap(lanes, entry[1])
            taken = (value == 0) == entry[2]
            self._ap_retire(
                lanes, np.where(taken, entry[3], p + 1)
            )
        elif kind == D.A_STREAM:
            self._ap_stream(lanes, entry)
        elif kind == D.A_JMP:
            self._ap_retire(
                lanes, np.full(lanes.size, entry[1], dtype=np.int64)
            )
        elif kind == D.A_HALT:
            self.ap_halt[lanes] = True
            self._ap_retire(lanes)
        else:  # A_NOP
            self._ap_retire(lanes)

    def _ap_stream(self, lanes, entry) -> None:
        (_, skind, tq, dq, iq, base_op, stride_op, count_op,
         consumed) = entry
        free = self.n_live[lanes] < self.max_streams
        self._ap_stall(lanes[~free], D.C_STREAM_SLOTS)
        lanes = lanes[free]
        if lanes.size == 0:
            return
        busy = np.zeros(lanes.size, dtype=bool)
        if tq >= 0:
            busy |= (self.produced_mask[lanes] >> tq) & 1 == 1
        for qid in consumed:
            busy |= (self.consumed_mask[lanes] >> qid) & 1 == 1
        self._ap_stall(lanes[busy], D.C_STREAM_QUEUE_BUSY)
        lanes = lanes[~busy]
        if lanes.size == 0:
            return
        base = self._as_addr(self._read_ap(lanes, base_op))
        stride = (
            self._as_addr(self._read_ap(lanes, stride_op))
            if stride_op is not None
            else np.ones(lanes.size, dtype=np.int64)
        )
        count = self._as_addr(self._read_ap(lanes, count_op))
        if np.any(count < 0):
            raise SimulationError("negative stream count")
        live = count > 0  # zero-length streams never activate
        ll = lanes[live]
        if ll.size:
            slot = self.n_live[ll]
            self.st_kind[ll, slot] = skind
            self.st_base[ll, slot] = base[live]
            self.st_stride[ll, slot] = stride[live]
            self.st_count[ll, slot] = count[live]
            self.st_issued[ll, slot] = 0
            self.st_tq[ll, slot] = tq
            self.st_dq[ll, slot] = dq
            self.st_iq[ll, slot] = iq
            self.n_live[ll] += 1
            if tq >= 0:
                self.produced_mask[ll] |= 1 << tq
            if dq >= 0:
                self.consumed_mask[ll] |= 1 << dq
            if iq >= 0:
                self.consumed_mask[ll] |= 1 << iq
        self._ap_retire(lanes)

    def _read_ep(self, lanes, operand):
        tag, payload = operand
        if tag == D.R:
            return self.ep_regs[lanes, payload]
        return np.full(lanes.size, payload, dtype=np.float64)

    def _step_ep(self, ix) -> None:
        lanes = ix[~self.ep_halt[ix]]
        if lanes.size == 0:
            return
        pcs = self.ep_pc[lanes]
        for p in np.unique(pcs):
            sub = lanes[pcs == p]
            if p >= self.ep_len:
                raise SimulationError("EP ran off the end of program")
            self._ep_exec(sub, self.ep_prog[p], int(p))

    def _ep_exec(self, lanes, entry, p: int) -> None:
        kind = entry[0]
        if kind == D.E_ALU:
            srcs = entry[2]
            ok = np.ones(lanes.size, dtype=bool)
            for tag, payload in srcs:
                if tag == D.Q:
                    sub = np.flatnonzero(ok)
                    ready = self._q_ready(lanes[sub], payload)
                    ok[sub[~ready]] = False
            self._ep_stall(lanes[~ok], D.C_LQ_EMPTY)
            lanes = lanes[ok]
            if lanes.size == 0:
                return
            dest_q = entry[3]
            if dest_q is not None:
                free = (
                    self.q_count[lanes, dest_q]
                    < self.q_cap[lanes, dest_q]
                )
                self._ep_stall(lanes[~free], D.C_Q_FULL)
                lanes = lanes[free]
                if lanes.size == 0:
                    return
            args = [
                self._q_pop(lanes, payload) if tag == D.Q
                else self._read_ep(lanes, (tag, payload))
                for tag, payload in srcs
            ]
            result = _alu_eval(entry[1], args)
            if dest_q is not None:
                self._q_put(lanes, dest_q, result, self.now[lanes])
            else:
                self.ep_regs[lanes, entry[4]] = result
            self._ep_retire(lanes)
        elif kind == D.E_BR:
            value = self._read_ep(lanes, entry[1])
            taken = (value == 0) == entry[2]
            self._ep_retire(
                lanes, np.where(taken, entry[3], p + 1)
            )
        elif kind == D.E_DECBNZ:
            reg = entry[1]
            self.ep_regs[lanes, reg] -= 1
            taken = self.ep_regs[lanes, reg] != 0
            self._ep_retire(
                lanes, np.where(taken, entry[2], p + 1)
            )
        elif kind == D.E_JMP:
            self._ep_retire(
                lanes, np.full(lanes.size, entry[1], dtype=np.int64)
            )
        elif kind == D.E_HALT:
            self.ep_halt[lanes] = True
            self._ep_retire(lanes)
        else:  # E_NOP
            self._ep_retire(lanes)

    # -- the run loop ----------------------------------------------------

    def _deadlock_error(self, lane: int, deadlock_window: int) -> None:
        """Raise the deadlock diagnostic for one overdue lane (shared by
        the interpreted loop and generated lane steppers)."""
        raise SimulationError(
            "deadlock: no forward progress for "
            f"{deadlock_window} cycles at cycle "
            f"{int(self.now[lane])} (lane {lane}); "
            f"AP@{int(self.ap_pc[lane])} "
            f"halted={bool(self.ap_halt[lane])}; "
            f"EP@{int(self.ep_pc[lane])} "
            f"halted={bool(self.ep_halt[lane])}; "
            f"live streams={int(self.n_live[lane])}"
        )

    def run(
        self,
        max_cycles: int = 10_000_000,
        deadlock_window: int = 10_000,
        compiled: bool | None = None,
    ) -> BatchOutcome:
        """Run every lane to completion.

        ``compiled`` selects the stepper: ``None`` (default) uses the
        program-specialized generated loop when the emitter supports the
        program, falling back to the interpreted loop; ``True`` requires
        the generated loop (raises :class:`SimulationError` when the
        program cannot be specialized); ``False`` forces the
        interpreted loop.  All three produce bit-identical statistics
        and memory images.
        """
        if compiled is None or compiled:
            from .cache import get_or_compile

            artifact = get_or_compile(self)
            if artifact is not None:
                artifact.fn(self, max_cycles, deadlock_window)
                return BatchOutcome(stats=self.stats, memory=self.mem)
            if compiled:
                raise SimulationError(
                    "program cannot be specialized by the batch "
                    "emitter (compiled=True)"
                )
        st = self.stats
        NL = self.NL
        while True:
            ix = np.flatnonzero(self.active)
            if ix.size == 0:
                break
            self._delivered[ix] = False
            self._progress[ix] = False
            self.port_used[ix] = False

            self._tick_completions(ix)
            self._tick_store_unit(ix)
            self._tick_engine(ix)
            self._step_ap(ix)
            self._step_ep(ix)

            outst = self.q_count[ix, :NL].sum(axis=1)
            st.occupancy_sum[ix] += outst
            bigger = outst > st.occupancy_max[ix]
            st.occupancy_max[ix[bigger]] = outst[bigger]
            self.now[ix] += 1

            prog = self._progress[ix]
            self.last_progress[ix[prog]] = self.now[ix[prog]]

            done = (
                self.ap_halt[ix]
                & self.ep_halt[ix]
                & (self.n_live[ix] == 0)
                & (self.q_count[ix, self.qlay.saq] == 0)
                & (self.pend_count[ix] == 0)
            )
            dl = ix[done]
            if dl.size:
                self.cycles[dl] = self.now[dl]
                self.active[dl] = False
            live = ix[~done]
            if live.size == 0:
                continue
            if np.any(self.now[live] >= max_cycles):
                raise SimulationError(
                    f"exceeded cycle budget {max_cycles}"
                )

            idle = live[
                ~self._progress[live] & ~self._delivered[live]
            ]
            if idle.size:
                self._idle_jump(
                    idle, outst[~done][
                        ~self._progress[live] & ~self._delivered[live]
                    ],
                    max_cycles, deadlock_window,
                )
            overdue = live[
                self.now[live] - self.last_progress[live]
                > deadlock_window
            ]
            if overdue.size:
                self._deadlock_error(int(overdue[0]), deadlock_window)
        return BatchOutcome(stats=st, memory=self.mem)

    def _idle_jump(
        self, lanes, outst, max_cycles: int, deadlock_window: int
    ) -> None:
        """Fast-forward steady stalls: the just-simulated cycle made no
        progress and delivered nothing, so every cycle until the lane's
        next memory event repeats it exactly — add its statistic
        increments in closed form and jump the lane clock."""
        tprev = self.now[lanes] - 1  # the cycle just simulated
        pend = np.where(
            self.pend_count[lanes] > 0,
            self.pend_t[lanes, self.pend_head[lanes]],
            _BIG,
        )
        bf = self.bank_free[lanes]
        banks = np.where(bf > tprev[:, None], bf, _BIG).min(axis=1)
        horizon = np.minimum(
            self.last_progress[lanes] + deadlock_window + 1, max_cycles
        )
        target = np.minimum(np.minimum(pend, banks), horizon)
        skipped = target - self.now[lanes]
        hop = skipped > 0
        lanes, skipped = lanes[hop], skipped[hop]
        if lanes.size == 0:
            return
        ap_c = self.ap_stalled[lanes]
        apl = ap_c != _NONE  # non-halted AP repeats its stall cause
        self.stats.ap_stalls[lanes[apl], ap_c[apl]] += skipped[apl]
        ep_c = self.ep_stalled[lanes]
        epl = ep_c != _NONE
        self.stats.ep_stalls[lanes[epl], ep_c[epl]] += skipped[epl]
        self.stats.occupancy_sum[lanes] += outst[hop] * skipped
        self.now[lanes] += skipped
