"""Specializing emitter: one (program, config) pair in, one
straight-line Python run loop out.

The interpreters in :mod:`repro.core` pay per-cycle dispatch for
generality: every simulated cycle re-reads the same decoded tuples,
re-branches on the same operand tags and re-checks queues the program
can never touch.  :class:`MachineLoopEmitter` walks the decoded
programs and the machine configuration *once* and writes out the exact
cycle body this machine will execute:

* operands and immediates become literals (``ap_regs[3]``, ``(2.5)``),
  ALU functions become inline expressions with identical semantics;
* queue capacities, bank counts, port widths, latencies and memory size
  are baked in as constants;
* dead checks are elided — no store-unit body without a ``staddr``, no
  stream-engine body without a stream op, no completion delivery for a
  program that never issues a load;
* per-instruction dispatch becomes a binary if-tree over literal pcs.

The output is a whole-run loop with the event-horizon scheduler's
structure — completion delivery, jump planning, closed-form replay and
deadlock accounting specialized to the components this program can
wake.  *Every* hot counter lives in a function local and is synced back
to the machine in a ``finally``: processor pcs/stall state, per-queue
traffic and occupancy counters (the lazy flush bodies are inlined at
each mutation site against local state), the load-occupancy aggregate,
and the banked-memory counters and port window.  Stream and store-unit
work dispatches to per-site bodies over the queues the program names
statically, memory completions ride a local FIFO as plain ``(time,
seq, queue_index, token, value)`` tuples delivered inline (completion
order is issue order under one constant latency; re-boxed onto the
heap in the ``partial(queue.fill, token)`` shape the checkpoint layer
recognizes before returning), and the stall snapshot/replay pair of
the fast-forward contract is emitted as a flat tuple over exactly the
counters this program's stall sites can touch.  Because that
localization bakes in who owns every piece of async state, the
compiled loop requires the stream-descriptor list, store-address queue
and completion heap to be empty at entry; the run adapter delegates
mid-flight resumes to the (bit-identical) event-horizon interpreter.

The output is bit-identical to naive ticking — property-tested in
``tests/test_event_horizon.py``.  A program using operand shapes the
interpreters would only reject at execution time raises
:class:`Unsupported` and the run loop falls back to the event-horizon
scheduler (see ARCHITECTURE section 18 for the full contract).
"""

from __future__ import annotations

from contextlib import contextmanager

from ..core import access_processor as _apm
from ..core import execute_processor as _epm
from ..errors import QueueError
from ..isa import Op, Queue

#: AP ops that start a stream descriptor (delegated to
#: ``AccessProcessor._start_stream`` — cold path, runs once per stream)
_STREAM_OPS = frozenset((Op.STREAMLD, Op.GATHER, Op.STREAMST, Op.SCATTER))
_PRODUCING_STREAMS = frozenset((Op.STREAMLD, Op.GATHER))
_CONSUMING_STREAMS = frozenset((Op.STREAMST, Op.SCATTER))
_INDEXED_STREAMS = frozenset((Op.GATHER, Op.SCATTER))

#: queue-counter suffixes for the per-queue function locals
_QF = {
    "empty_stalls": "em",
    "full_stalls": "fu",
    "pops": "po",
    "pushes": "pu",
}


class Unsupported(Exception):
    """The program cannot be specialized; fall back to event-horizon."""


def _alu_expr(op: Op, a: list[str]) -> str:
    """Python expression with semantics identical to ``ALU_FUNCS[op]``
    (:mod:`repro.isa.opcodes`); ``a`` holds operand sub-expressions."""

    def need(k: int) -> None:
        if len(a) != k:
            raise Unsupported(f"{op} with {len(a)} operands")

    if op is Op.ADD:
        need(2)
        return f"({a[0]} + {a[1]})"
    if op is Op.SUB:
        need(2)
        return f"({a[0]} - {a[1]})"
    if op is Op.MUL:
        need(2)
        return f"({a[0]} * {a[1]})"
    if op is Op.DIV:
        need(2)
        return f"_div({a[0]}, {a[1]})"
    if op is Op.MOD:
        need(2)
        return f"_mod({a[0]}, {a[1]})"
    if op is Op.MIN:
        need(2)
        return f"min({a[0]}, {a[1]})"
    if op is Op.MAX:
        need(2)
        return f"max({a[0]}, {a[1]})"
    if op is Op.ABS:
        need(1)
        return f"abs({a[0]})"
    if op is Op.NEG:
        need(1)
        return f"(-({a[0]}))"
    if op is Op.SQRT:
        need(1)
        return f"_sqrt({a[0]})"
    if op is Op.FLOOR:
        need(1)
        return f"float(_floor({a[0]}))"
    if op is Op.MOV:
        need(1)
        return f"({a[0]})"
    if op is Op.CMPLT:
        need(2)
        return f"(1.0 if {a[0]} < {a[1]} else 0.0)"
    if op is Op.CMPLE:
        need(2)
        return f"(1.0 if {a[0]} <= {a[1]} else 0.0)"
    if op is Op.CMPEQ:
        need(2)
        return f"(1.0 if {a[0]} == {a[1]} else 0.0)"
    if op is Op.CMPNE:
        need(2)
        return f"(1.0 if {a[0]} != {a[1]} else 0.0)"
    if op is Op.SEL:
        need(3)
        return f"({a[1]} if {a[0]} != 0 else {a[2]})"
    raise Unsupported(f"no expression form for {op}")


class MachineLoopEmitter:
    """Whole-run loop for a standalone machine.

    Program analysis, the line buffer and the per-site emission helpers
    for queues, the memory port and the four component bodies come
    first; the horizon probe, the stall snapshot/replay pair and the
    loop assembly (:meth:`generate`) follow.
    """

    def __init__(self, machine):
        self.m = machine
        self.lines: list[str] = []
        self.depth = 0
        cfg = machine.config
        self.nbanks = cfg.memory.num_banks
        self.accepts = cfg.memory.accepts_per_cycle
        self.bank_busy = cfg.memory.bank_busy
        self.latency = cfg.memory.latency
        self.msize = machine.memory.size
        self.issue_per_cycle = machine.engine.issue_per_cycle
        # queue object -> flat index in machine._queue_list (the hoisted
        # name of queue i is "q{i}", its slots "q{i}s", its stats "q{i}t")
        self.qindex = {
            id(q): i for i, q in enumerate(machine._queue_list)
        }
        self.n_load = len(machine.queues.load)
        self.saq_i = self.qindex[id(machine.queues.store_addr)]
        self.ebq_i = self.qindex[id(machine.queues.ep_to_ap_branch)]
        self.used_queues: set[int] = set()
        # -- static program analysis (what can this machine ever do?) --
        ap_ops = [instr.op for instr in machine.ap.program]
        self.has_staddr = Op.STADDR in ap_ops
        self.has_ldq = Op.LDQ in ap_ops
        stream_ops = [op for op in ap_ops if op in _STREAM_OPS]
        self.has_stream = bool(stream_ops)
        self.has_producing = any(
            op in _PRODUCING_STREAMS for op in stream_ops
        )
        self.has_consuming = any(
            op in _CONSUMING_STREAMS for op in stream_ops
        )
        self.has_indexed = any(op in _INDEXED_STREAMS for op in stream_ops)
        #: can this program ever put a completion in flight?
        self.uses_memory = self.has_ldq or self.has_producing
        # -- static site lists (ordered, first-appearance) --------------
        #: queues that can receive a memory completion (ldq and
        #: producing-stream targets) — the marker dispatch set
        self.comp_targets: list[int] = []
        #: producing-stream target queues / consuming-stream data
        #: queues / indexed-stream index queues
        self.produce_sites: list[int] = []
        self.consume_sites: list[int] = []
        self.index_sites: list[int] = []
        #: store-data queue indices named by ``staddr`` instructions
        self.staddr_dqis: list[int] = []
        #: stall causes either processor can ever record
        self.ap_causes: list[str] = []
        self.ep_causes: list[str] = []
        self._collect_queues()
        self.has_lod = any(c.startswith("lod_") for c in self.ap_causes)
        #: stall causes recorded by delegated reference methods (stream
        #: start) directly in the stats dict — never localized
        self._dyn_causes = {"stream_slots", "stream_queue_busy"}
        #: dense stream descriptors are shadowed into parallel lists
        #: (next address, strides, remaining count, site id) so the
        #: per-attempt engine loop and the horizon probe index lists
        #: instead of reading descriptor attributes; indexed streams
        #: (gather/scatter) keep the attribute path
        self._shadow_streams = self.has_stream and not self.has_indexed

    # -- line buffer ------------------------------------------------------

    def w(self, line: str = "") -> None:
        self.lines.append("    " * self.depth + line if line else "")

    @contextmanager
    def block(self, header: str):
        self.w(header)
        self.depth += 1
        yield
        self.depth -= 1

    # -- queue naming -----------------------------------------------------

    def q(self, queue) -> int:
        """Flat index of a statically known queue; marks it hoisted."""
        i = self.qindex.get(id(queue))
        if i is None:  # pragma: no cover - queues come from the file
            raise Unsupported("operand queue not in the machine's file")
        self.used_queues.add(i)
        return i

    def is_load(self, i: int) -> bool:
        return i < self.n_load

    def qc(self, i: int, field: str) -> str:
        """L-value (a function local) of queue ``i``'s traffic/stall
        counter ``field``."""
        return f"q{i}_{_QF[field]}"

    def head_ready(self, i: int) -> str:
        """Condition: queue ``i`` non-empty with a filled head slot
        (tests the maintained length local, not the deque)."""
        return f"q{i}_n and q{i}s[0].filled"

    def full_cond(self, i: int, cap: int) -> str:
        """Condition: queue ``i`` at capacity."""
        return f"q{i}_n >= {cap}"

    def _resolve(self, operand) -> int:
        """Flat index of an ISA queue operand (stream instructions name
        their queues statically even though base/stride/count are
        register values resolved at start time)."""
        if not isinstance(operand, Queue):
            raise Unsupported(f"stream queue operand {operand!r}")
        try:
            return self.q(self.m.queues.resolve(operand))
        except QueueError as exc:
            raise Unsupported(str(exc)) from None

    # -- operand decoding -------------------------------------------------

    def ap_operand(self, decoded) -> str:
        tag, payload = decoded
        if tag == _apm._O_REG:
            return f"ap_regs[{payload}]"
        if tag == _apm._O_IMM:
            return f"({payload!r})"
        raise Unsupported(f"AP operand {payload!r}")

    def ep_operand(self, decoded) -> str:
        tag, payload = decoded
        if tag == _epm._O_REG:
            return f"ep_regs[{payload}]"
        if tag == _epm._O_IMM:
            return f"({payload!r})"
        raise Unsupported(f"EP operand {payload!r}")

    # -- lazy-occupancy accounting ----------------------------------------

    def emit_flush(self, i: int) -> None:
        """Inline ``OperandQueue._lazy_flush`` for hoisted queue ``i``
        against its localized occupancy state (the loop runs every
        queue in lazy mode for the whole run, so the ``_lazy`` flag test
        is statically True and elided)."""
        with self.block(f"if now > q{i}_sy:"):
            self.w(f"_span = now - q{i}_sy")
            self.w(f"q{i}_sa += _span")
            self.w(f"q{i}_oc += q{i}_n * _span")
            with self.block(f"if q{i}_n > q{i}_mx:"):
                self.w(f"q{i}_mx = q{i}_n")
            self.w(f"q{i}_hl[q{i}_n] += _span")
            self.w(f"q{i}_sy = now")

    def emit_agg(self, delta: int) -> None:
        """Inline ``LoadOccupancyAggregate.change(now, delta)`` against
        the localized aggregate (statically a load-queue site)."""
        with self.block("if now > agg_sync:"):
            with self.block("if agg_total > agg_max:"):
                self.w("agg_max = agg_total")
            self.w("agg_sync = now")
        self.w(f"agg_total += {delta}" if delta >= 0
               else f"agg_total -= {-delta}")

    def emit_pop(self, i: int, dest: str | None) -> None:
        """Inline ``queue.pop()`` on hoisted queue ``i`` (head already
        verified ready by the caller), recycling the popped slot onto
        the token freelist (see :meth:`emit_reserve_token`)."""
        self.emit_flush(i)
        if self.is_load(i):
            self.emit_agg(-1)
        self.w(f"{self.qc(i, 'pops')} += 1")
        if dest is None:
            self.w(f"fl_ap(q{i}_pl())")
        else:
            self.w(f"_sl = q{i}_pl()")
            self.w(f"{dest} = _sl.value")
            self.w("fl_ap(_sl)")
        self.w(f"q{i}_n -= 1")

    def emit_reserve_token(self) -> None:
        """``_tok = <fresh empty slot>``, preferring the
        token freelist over constructing a ``_Slot`` (~9x cheaper than
        ``__init__``).  Recycled slots are safe to reuse: every pop site
        requires the head to be filled first, and a filled slot can have
        no completion marker still pointing at it (``fill`` runs exactly
        once per reservation — a second fill raises)."""
        with self.block("if fl:"):
            self.w("_tok = fl_po()")
            self.w("_tok.filled = False")
        with self.block("else:"):
            self.w("_tok = _Slot()")

    def emit_push(self, i: int, value_expr: str) -> None:
        """Inline ``queue.push(value)`` on hoisted queue ``i`` (space
        already verified by the caller)."""
        self.emit_flush(i)
        if self.is_load(i):
            self.emit_agg(1)
        with self.block("if fl:"):
            self.w("_tok = fl_po()")
            self.w("_tok.filled = True")
            self.w(f"_tok.value = {value_expr}")
        with self.block("else:"):
            self.w(f"_tok = _Slot(True, {value_expr})")
        self.w(f"q{i}_ap(_tok)")
        self.w(f"q{i}_n += 1")
        self.w(f"{self.qc(i, 'pushes')} += 1")

    # -- memory port ------------------------------------------------------

    # the per-cycle issue window ``(cycle, count)`` lives in the
    # function locals ``iss_cyc``/``iss_cnt``

    def port_busy(self, addr: str) -> str:
        """Reject condition of ``BankedMemory.try_issue`` as an
        expression (True = port saturated or bank busy)."""
        return (
            f"(iss_cyc == now and iss_cnt >= {self.accepts}) "
            f"or bank_free[{addr} % {self.nbanks}] > now"
        )

    def port_free(self) -> str:
        """Accept condition (port window open and the bank free check
        appended by the caller)."""
        return f"(iss_cyc != now or iss_cnt < {self.accepts})"

    def emit_accept(self, bankv: str) -> None:
        """Accept-side bookkeeping of ``try_issue`` (port window, bank
        busy span, contention counters); the read/write counter and the
        data effect stay at the call site."""
        with self.block("if iss_cyc == now:"):
            self.w("iss_cnt += 1")
        with self.block("else:"):
            self.w("iss_cyc = now")
            self.w("iss_cnt = 1")
        self.w(f"bank_free[{bankv}] = now + {self.bank_busy}")
        self.w(f"mbusy += {self.bank_busy}")
        self.w(f"pba[{bankv}] += 1")

    def emit_completion(self, qi: int, tok: str = "_tok",
                        res: str = "_res") -> None:
        """Schedule a completion for hoisted queue ``qi``.

        Appends a plain ``(time, seq, queue_index, token, value)``
        marker tuple to a local deque delivered inline by the loop's own
        dispatch: with one constant memory latency and a nondecreasing
        clock, completion order is issue order, so the FIFO replaces the
        heap's O(log n) sifts (entries are re-boxed to the
        ``partial(queue.fill, token)`` callback shape
        ``checkpoint._completion_entry`` recognizes — in sorted order,
        which is a valid heap — before the function returns)."""
        self.w("seq += 1")
        self.w(f"_ct = now + {self.latency}")
        with self.block("if _ct < _nc:"):
            self.w("_nc = _ct")
        self.w(f"cq_ap((_ct, seq, {qi}, {tok}, {res}))")

    def emit_as_address(self, value_expr: str, addr_var: str) -> None:
        """Inline ``as_address``: integral check with the identical
        :class:`MemoryError_` diagnostic."""
        self.w(f"_v = {value_expr}")
        self.w(f"{addr_var} = int(_v)")
        with self.block(f"if {addr_var} != _v:"):
            self.w('raise MemoryError_("non-integral address %r" % (_v,))')

    # -- processor state (function locals ap_pc/ap_stalled/ap_i, ep_*) ----

    def emit_ap_retire(self, next_pc: str) -> None:
        self.w("ap_i += 1")
        self.emit_live()
        self.w("ap_stalled = None")
        self.w(f"ap_pc = {next_pc}")

    def emit_ep_retire(self, next_pc: str) -> None:
        self.w("ep_i += 1")
        self.emit_live()
        self.w("ep_stalled = None")
        self.w(f"ep_pc = {next_pc}")

    def emit_live(self) -> None:
        """Mark the cycle as having made forward progress.

        Every progress counter the reference sums (``ap_i``, ``ep_i``,
        ``req_n``, ``st_n``, ``m_reads``, ``m_writes``) is monotonic, so
        the sum changes iff some increment site fired this cycle; the
        localized memory counters only ever move together with a retire,
        an engine issue or a store, so flagging those sites is exactly
        the reference's ``progress != last_progress`` comparison without
        re-summing six locals every cycle."""
        self.w("_live = True")

    def ap_cause_ref(self, cause: str) -> str | None:
        """Function-local counter for one AP stall cause, ``None`` when
        the cause stays dict-based."""
        if cause not in self._dyn_causes:
            return f"apc{self.ap_causes.index(cause)}"
        return None

    def ep_cause_ref(self, cause: str) -> str | None:
        if cause not in self._dyn_causes:
            return f"epc{self.ep_causes.index(cause)}"
        return None

    def emit_ap_stall(self, cause: str) -> None:
        ref = self.ap_cause_ref(cause)
        if ref is not None:
            self.w(f"{ref} += 1")
        else:
            self.w(f'ap_st[{cause!r}] = ap_st.get({cause!r}, 0) + 1')
        if cause.startswith("lod_"):
            with self.block(f"if ap_stalled != {cause!r}:"):
                self.w("ap_lod += 1")
        self.w(f"ap_stalled = {cause!r}")

    def emit_ep_stall(self, cause: str) -> None:
        ref = self.ep_cause_ref(cause)
        if ref is not None:
            self.w(f"{ref} += 1")
        else:
            self.w(f'ep_st[{cause!r}] = ep_st.get({cause!r}, 0) + 1')
        self.w(f"ep_stalled = {cause!r}")

    # -- pc dispatch ------------------------------------------------------

    def emit_pc_tree(self, count: int, pc_var: str, leaf) -> None:
        """Binary if-tree over literal pcs ``0..count-1`` (the caller
        guarantees ``pc_var`` is in range)."""

        def rec(lo: int, hi: int) -> None:
            if hi - lo == 1:
                leaf(lo)
                return
            mid = (lo + hi) // 2
            with self.block(f"if {pc_var} < {mid}:"):
                rec(lo, mid)
            with self.block("else:"):
                rec(mid, hi)

        rec(0, count)

    # -- AP body ----------------------------------------------------------

    def emit_ap_dispatch(self) -> None:
        ap = self.m.ap
        plen = len(ap.program)
        off_end = (
            f"AP ran off the end of program {ap.program.name!r}"
        )
        with self.block(f"if ap_pc >= {plen}:"):
            self.w(f"raise SimulationError({off_end!r})")
        if plen:
            self.emit_pc_tree(plen, "ap_pc", self.emit_ap_instr)

    def emit_ap_instr(self, pc: int) -> None:
        ap = self.m.ap
        entry = ap._decoded[pc]
        kind = entry[0]
        op = ap.program[pc].op
        nxt = str(pc + 1)
        if kind == _apm._A_ALU:
            if entry[3] is None:
                raise Unsupported(f"AP ALU at pc {pc} without register dest")
            args = [self.ap_operand(d) for d in entry[2]]
            self.w(f"ap_regs[{entry[3]}] = {_alu_expr(op, args)}")
            self.emit_ap_retire(nxt)
            return
        if kind == _apm._A_LDQ:
            self._emit_ap_ldq(pc, entry, nxt)
            return
        if kind == _apm._A_DECBNZ:
            index, target = entry[1], entry[2]
            self._check_target(target, len(ap.program))
            self.w(f"ap_regs[{index}] -= 1")
            self.emit_ap_retire(
                f"{target} if ap_regs[{index}] != 0 else {nxt}"
            )
            return
        if kind == _apm._A_FROMQ:
            self._emit_ap_fromq(pc, entry, nxt)
            return
        if kind == _apm._A_STADDR:
            self._emit_ap_staddr(pc, entry, nxt)
            return
        if kind == _apm._A_BQ:
            self._emit_ap_bq(pc, entry, nxt)
            return
        if kind == _apm._A_BR:
            cond = self.ap_operand(entry[1])
            target = entry[3]
            self._check_target(target, len(ap.program))
            cmp_op = "==" if entry[2] else "!="
            self.emit_ap_retire(f"{target} if {cond} {cmp_op} 0 else {nxt}")
            return
        if kind == _apm._A_STREAM:
            # cold path (runs once per started stream): delegate to the
            # reference method, which handles slot/role stalls and
            # descriptor construction
            self.w("ap._stalled_on = ap_stalled")
            with self.block(f"if ap._start_stream(ap_prog[{pc}]):"):
                if self._shadow_streams:
                    # the rebuild below reads descriptor.issued, so
                    # flush the authoritative shadow counts onto the
                    # pre-existing descriptors first (the new one sits
                    # past the old _ns, freshly built)
                    self._emit_stream_issued_writeback()
                self.w("_ns = len(streams)")
                if self._shadow_streams:
                    self._emit_stream_shadow_refresh()
                self.emit_ap_retire(nxt)
            with self.block("else:"):
                self.w("ap_stalled = ap._stalled_on")
            return
        if kind == _apm._A_JMP:
            target = entry[1]
            self._check_target(target, len(ap.program))
            self.emit_ap_retire(str(target))
            return
        if kind == _apm._A_HALT:
            self.w("ap_halted = True")
            self.emit_ap_retire(nxt)
            return
        # _A_NOP
        self.emit_ap_retire(nxt)

    @staticmethod
    def _check_target(target, plen) -> None:
        if not isinstance(target, int) or target < 0:
            raise Unsupported(f"branch target {target!r}")

    def _emit_ap_ldq(self, pc: int, entry, nxt: str) -> None:
        i = self.q(entry[1])
        a = self.ap_operand(entry[2])
        b = self.ap_operand(entry[3])
        self.emit_as_address(f"{a} + {b}", "addr")
        with self.block(f"if {self.full_cond(i, entry[1].capacity)}:"):
            self.w(f"{self.qc(i, 'full_stalls')} += 1")
            self.emit_ap_stall("queue_full")
        with self.block("else:"):
            with self.block(f"if {self.port_busy('addr')}:"):
                self.emit_ap_stall("memory_busy")
            with self.block("else:"):
                # reserve (space just checked), then the try_issue
                # accept path, read effect at issue, completion at
                # now + latency — the reference order
                self.emit_flush(i)
                if self.is_load(i):
                    self.emit_agg(1)
                self.emit_reserve_token()
                self.w(f"q{i}_ap(_tok)")
                self.w(f"q{i}_n += 1")
                self.w(f"_bank = addr % {self.nbanks}")
                self.emit_accept("_bank")
                self.w("m_reads += 1")
                with self.block(f"if 0 <= addr < {self.msize}:"):
                    self.w("_res = float(words[addr])")
                with self.block("else:"):
                    self.w("_res = storage.read(addr)")
                self.emit_completion(i)
                self.emit_ap_retire(nxt)

    def _emit_ap_fromq(self, pc: int, entry, nxt: str) -> None:
        i = self.q(entry[1])
        cause = entry[2]
        if entry[3] is None:
            raise Unsupported(f"AP FROMQ at pc {pc} without register dest")
        with self.block(f"if {self.head_ready(i)}:"):
            self.emit_pop(i, f"ap_regs[{entry[3]}]")
            self.emit_ap_retire(nxt)
        with self.block("else:"):
            self.w(f"{self.qc(i, 'empty_stalls')} += 1")
            self.emit_ap_stall(cause)

    def _emit_ap_staddr(self, pc: int, entry, nxt: str) -> None:
        s = self.saq_i
        self.used_queues.add(s)
        saq = self.m.queues.store_addr
        with self.block(f"if {self.full_cond(s, saq.capacity)}:"):
            self.w(f"{self.qc(s, 'full_stalls')} += 1")
            self.emit_ap_stall("saq_full")
        with self.block("else:"):
            a = self.ap_operand(entry[2])
            b = self.ap_operand(entry[3])
            self.emit_as_address(f"{a} + {b}", "addr")
            self.emit_push(s, f"(addr, {entry[1]})")
            self.emit_ap_retire(nxt)

    def _emit_ap_bq(self, pc: int, entry, nxt: str) -> None:
        e = self.ebq_i
        self.used_queues.add(e)
        target = entry[2]
        self._check_target(target, len(self.m.ap.program))
        cmp_op = "!=" if entry[1] else "=="  # BQNZ taken when value != 0
        with self.block(f"if {self.head_ready(e)}:"):
            self.emit_pop(e, "_val")
            self.emit_ap_retire(f"{target} if _val {cmp_op} 0 else {nxt}")
        with self.block("else:"):
            self.w(f"{self.qc(e, 'empty_stalls')} += 1")
            self.emit_ap_stall("lod_ebq")

    # -- EP body ----------------------------------------------------------

    def emit_ep_dispatch(self) -> None:
        ep = self.m.ep
        plen = len(ep.program)
        off_end = (
            f"EP ran off the end of program {ep.program.name!r}"
        )
        with self.block(f"if ep_pc >= {plen}:"):
            self.w(f"raise SimulationError({off_end!r})")
        if plen:
            self.emit_pc_tree(plen, "ep_pc", self.emit_ep_instr)

    def emit_ep_instr(self, pc: int) -> None:
        ep = self.m.ep
        entry = ep._decoded[pc]
        kind = entry[0]
        op = ep.program[pc].op
        nxt = str(pc + 1)
        if kind == _epm._D_ALU:
            self._emit_ep_alu(pc, entry, op, nxt)
            return
        if kind == _epm._D_BR:
            cond = self.ep_operand(entry[1])
            target = entry[3]
            self._check_target(target, len(ep.program))
            cmp_op = "==" if entry[2] else "!="
            self.emit_ep_retire(f"{target} if {cond} {cmp_op} 0 else {nxt}")
            return
        if kind == _epm._D_DECBNZ:
            index, target = entry[1], entry[2]
            self._check_target(target, len(ep.program))
            self.w(f"ep_regs[{index}] -= 1")
            self.emit_ep_retire(
                f"{target} if ep_regs[{index}] != 0 else {nxt}"
            )
            return
        if kind == _epm._D_JMP:
            target = entry[1]
            self._check_target(target, len(ep.program))
            self.emit_ep_retire(str(target))
            return
        if kind == _epm._D_HALT:
            self.w("ep_halted = True")
            self.emit_ep_retire(nxt)
            return
        # _D_NOP
        self.emit_ep_retire(nxt)

    def _emit_ep_alu(self, pc: int, entry, op: Op, nxt: str) -> None:
        srcs = entry[2]
        dest_queue, dest_reg = entry[3], entry[4]
        if dest_queue is None and dest_reg is None:
            raise Unsupported(f"EP ALU at pc {pc} without a destination")
        # (queue index, src position) for every queue source, in order
        qsrcs = [
            (self.q(payload), pos)
            for pos, (tag, payload) in enumerate(srcs)
            if tag == _epm._O_QUEUE
        ]
        di = self.q(dest_queue) if dest_queue is not None else None

        def body() -> None:
            args: list[str] = []
            for pos, (tag, payload) in enumerate(srcs):
                if tag == _epm._O_QUEUE:
                    i = self.qindex[id(payload)]
                    self.emit_pop(i, f"_a{pos}")
                    args.append(f"_a{pos}")
                else:
                    args.append(self.ep_operand((tag, payload)))
            result = _alu_expr(op, args)
            if di is not None:
                self.emit_push(di, result)
            else:
                self.w(f"ep_regs[{dest_reg}] = {result}")
            self.emit_ep_retire(nxt)

        # head checks for every queue source (in order), then the dest
        # space check, then the pops — the reference's atomic-issue order
        conds: list[tuple[str, callable]] = []
        for i, _pos in qsrcs:
            def stall_src(i=i):
                self.w(f"{self.qc(i, 'empty_stalls')} += 1")
                self.emit_ep_stall("lq_empty")
            conds.append((f"not ({self.head_ready(i)})", stall_src))
        if di is not None:
            def stall_dest():
                self.w(f"{self.qc(di, 'full_stalls')} += 1")
                self.emit_ep_stall("q_full")
            conds.append(
                (self.full_cond(di, dest_queue.capacity), stall_dest)
            )
        if not conds:
            body()
            return
        for pos, (cond, stall) in enumerate(conds):
            kw = "if" if pos == 0 else "elif"
            with self.block(f"{kw} {cond}:"):
                stall()
        with self.block("else:"):
            body()

    # -- stream engine body -----------------------------------------------

    def emit_engine_body(self) -> None:
        """The round-robin issue loop of ``StreamEngine.tick_fast``,
        with branches for stream kinds this program never starts elided
        (caller wraps in ``if _ns:``).  Each attempt dispatches to a
        per-site body over the queues the stream instructions name
        statically so every counter stays local."""
        if self._shadow_streams:
            self._emit_engine_body_shadow()
            return
        # the attempt bound is the stream count at entry (the reference
        # computes it once), while the modulus tracks removals; the live
        # count is maintained in _ns instead of calling len()
        self.w("_issued = 0")
        self.w("_attempts = 0")
        self.w("_n = _ns")
        with self.block(
            f"while _issued < {self.issue_per_cycle} and _attempts < _n:"
        ):
            self.w("_desc = streams[rr % _ns]")
            self.w("_ok = False")
            self._emit_engine_addr()
            guard = "if addr is not None:" if self.has_indexed else None
            if guard:
                with self.block(guard):
                    self._emit_engine_attempt()
            else:
                self._emit_engine_attempt()
            with self.block("if _ok:"):
                if self._all_indexed():
                    self._emit_index_pop()
                elif self.has_indexed:
                    with self.block("if _desc.indexed:"):
                        self._emit_index_pop()
                self.w("_desc.issued += 1")
                self.w("_issued += 1")
                with self.block("if _desc.issued >= _desc.count:"):
                    self.w("streams.remove(_desc)")
                    self.w("_ns -= 1")
                    with self.block("if not _ns:"):
                        self.w("break")
                    self.w("continue")
            self.w("rr = (rr + 1) % _ns")
            self.w("_attempts += 1")
        with self.block("if _issued == 0:"):
            self.w("eng_blocked += 1")
        with self.block("else:"):
            self.w("req_n += _issued")
            self.emit_live()

    def _all_indexed(self) -> bool:
        return self.has_indexed and not any(
            instr.op in (Op.STREAMLD, Op.STREAMST)
            for instr in self.m.ap.program
        )

    # -- dense-stream descriptor shadowing --------------------------------

    def _stream_sites(self) -> list[tuple[str, int]]:
        """Static site table for shadowed dispatch: produce sites first,
        then consume sites; the list position is the runtime site id."""
        return [("p", k) for k in self.produce_sites] + \
            [("c", k) for k in self.consume_sites]

    def _emit_stream_issued_writeback(self) -> None:
        """Flush the shadow remaining-counts back onto the live
        descriptors (``issued = count - remaining``) — needed wherever
        descriptor state becomes observable: sync, deadlock report and
        the shadow rebuild on a stream start."""
        with self.block("for _j2 in range(_ns):"):
            self.w("_d2 = streams[_j2]")
            self.w("_d2.issued = _d2.count - s_rem[_j2]")

    def _emit_stream_shadow_refresh(self) -> None:
        """(Re)build the descriptor shadow lists — cold path, run at
        entry and after each delegated stream start.  ``s_addr`` holds
        the next dense address (advanced by ``s_stride`` on issue),
        ``s_rem`` the requests left, ``s_site`` the static dispatch id
        resolved from the descriptor's direction and queue."""
        self.w("s_addr = []")
        self.w("s_stride = []")
        self.w("s_rem = []")
        self.w("s_site = []")
        with self.block("for _d in streams:"):
            self.w("s_addr.append(_d.base + _d.issued * _d.stride)")
            self.w("s_stride.append(_d.stride)")
            self.w("s_rem.append(_d.count - _d.issued)")
            for sid, (kind, k) in enumerate(self._stream_sites()):
                kw = "if" if sid == 0 else "elif"
                cond = (
                    f"_d.produces and _d.target is q{k}" if kind == "p"
                    else f"not _d.produces and _d.data_queue is q{k}"
                )
                with self.block(f"{kw} {cond}:"):
                    self.w(f"s_site.append({sid})")
            with self.block("else:"):
                self.w(
                    'raise SimulationError('
                    '"codegen: unspecialized stream descriptor")'
                )

    def _emit_engine_body_shadow(self) -> None:
        """Round-robin issue loop over the shadow lists: two subscripts
        and an int compare reach the per-site body, against five
        attribute reads on the descriptor path."""
        self.w("_issued = 0")
        self.w("_attempts = 0")
        self.w("_n = _ns")
        with self.block(
            f"while _issued < {self.issue_per_cycle} and _attempts < _n:"
        ):
            self.w("_j = rr % _ns")
            self.w("_ok = False")
            self.w("addr = s_addr[_j]")
            self.w("_site = s_site[_j]")
            for sid, (kind, k) in enumerate(self._stream_sites()):
                kw = "if" if sid == 0 else "elif"
                with self.block(f"{kw} _site == {sid}:"):
                    if kind == "p":
                        self._emit_produce_site(k)
                    else:
                        self._emit_consume_site(k)
            with self.block("if _ok:"):
                self.w("s_addr[_j] = addr + s_stride[_j]")
                self.w("_issued += 1")
                self.w("_rem = s_rem[_j] - 1")
                with self.block("if _rem:"):
                    self.w("s_rem[_j] = _rem")
                with self.block("else:"):
                    # the shadowed index is the descriptor's position,
                    # so deleting by index is the reference's
                    # streams.remove(_desc)
                    self.w("del streams[_j]")
                    self.w("del s_addr[_j]")
                    self.w("del s_stride[_j]")
                    self.w("del s_rem[_j]")
                    self.w("del s_site[_j]")
                    self.w("_ns -= 1")
                    with self.block("if not _ns:"):
                        self.w("break")
                    self.w("continue")
            # (_j + 1) % _ns without the modulo: _j is already reduced
            self.w("rr = _j + 1")
            with self.block("if rr == _ns:"):
                self.w("rr = 0")
            self.w("_attempts += 1")
        with self.block("if _issued == 0:"):
            self.w("eng_blocked += 1")
        with self.block("else:"):
            self.w("req_n += _issued")
            self.w("_live = True")

    def _emit_engine_addr(self) -> None:
        dense = "addr = _desc.base + _desc.issued * _desc.stride"
        if not self.has_indexed:
            self.w(dense)
            return

        def indexed_calc() -> None:
            self.w("_islots = _desc.index_queue._slots")
            with self.block("if _islots and _islots[0].filled:"):
                self.w("_iv = _islots[0].value")
                self.w("_ia = int(_iv)")
                with self.block("if _ia != _iv:"):
                    self.w(
                        'raise MemoryError_('
                        '"non-integral address %r" % (_iv,))'
                    )
                self.w("addr = _desc.base + _ia")
            with self.block("else:"):
                self.w("addr = None")

        if self._all_indexed():
            indexed_calc()
        else:
            with self.block("if _desc.indexed:"):
                indexed_calc()
            with self.block("else:"):
                self.w(dense)

    def _emit_engine_attempt(self) -> None:
        if self.has_producing and self.has_consuming:
            with self.block("if _desc.produces:"):
                self._emit_engine_produce()
            with self.block("else:"):
                self._emit_engine_consume()
        elif self.has_producing:
            self._emit_engine_produce()
        else:
            self._emit_engine_consume()

    def _emit_engine_produce(self) -> None:
        self.w("_t = _desc.target")
        for n, k in enumerate(self.produce_sites):
            kw = "if" if n == 0 else "elif"
            with self.block(f"{kw} _t is q{k}:"):
                self._emit_produce_site(k)
        with self.block("else:"):
            self.w(
                'raise SimulationError('
                '"codegen: unspecialized stream target")'
            )

    def _emit_produce_site(self, k: int) -> None:
        cap = self.m._queue_list[k].capacity
        with self.block(f"if q{k}_n >= {cap}:"):
            self.w(f"q{k}_fu += 1")
        with self.block("else:"):
            self.w(f"_bank = addr % {self.nbanks}")
            with self.block(
                f"if {self.port_free()} and bank_free[_bank] <= now:"
            ):
                self.emit_flush(k)
                if self.is_load(k):
                    self.emit_agg(1)
                self.emit_reserve_token()
                self.w(f"q{k}_ap(_tok)")
                self.w(f"q{k}_n += 1")
                self.emit_accept("_bank")
                self.w("m_reads += 1")
                with self.block(f"if 0 <= addr < {self.msize}:"):
                    self.w("_res = float(words[addr])")
                with self.block("else:"):
                    self.w("_res = storage.read(addr)")
                self.emit_completion(k)
                self.w("_ok = True")

    def _emit_engine_consume(self) -> None:
        self.w("_dqv = _desc.data_queue")
        for n, k in enumerate(self.consume_sites):
            kw = "if" if n == 0 else "elif"
            with self.block(f"{kw} _dqv is q{k}:"):
                self._emit_consume_site(k)
        with self.block("else:"):
            self.w(
                'raise SimulationError('
                '"codegen: unspecialized stream data queue")'
            )

    def _emit_consume_site(self, k: int) -> None:
        with self.block(f"if not ({self.head_ready(k)}):"):
            self.w(f"q{k}_em += 1")
        with self.block("else:"):
            self.w(f"_bank = addr % {self.nbanks}")
            with self.block(
                f"if {self.port_free()} and bank_free[_bank] <= now:"
            ):
                self.emit_accept("_bank")
                self.w("m_writes += 1")
                with self.block(f"if 0 <= addr < {self.msize}:"):
                    self.w(f"words[addr] = q{k}s[0].value")
                with self.block("else:"):
                    self.w(f"storage.write(addr, q{k}s[0].value)")
                self.emit_flush(k)
                if self.is_load(k):
                    self.emit_agg(-1)
                self.w(f"q{k}_po += 1")
                self.w(f"fl_ap(q{k}_pl())")
                self.w(f"q{k}_n -= 1")
                self.w("_ok = True")

    def _emit_index_pop(self) -> None:
        self.w("_iqv = _desc.index_queue")
        for n, k in enumerate(self.index_sites):
            kw = "if" if n == 0 else "elif"
            with self.block(f"{kw} _iqv is q{k}:"):
                self.emit_flush(k)
                if self.is_load(k):
                    self.emit_agg(-1)
                self.w(f"q{k}_po += 1")
                self.w(f"fl_ap(q{k}_pl())")
                self.w(f"q{k}_n -= 1")
        with self.block("else:"):
            self.w(
                'raise SimulationError('
                '"codegen: unspecialized stream index queue")'
            )

    # -- store unit body --------------------------------------------------

    def emit_su_body(self) -> None:
        """``StoreUnit.tick_fast`` under the caller's non-empty-SAQ
        guard, dispatching over the store-data queue indices the
        program's ``staddr`` instructions name statically."""
        s = self.saq_i
        self.used_queues.add(s)
        with self.block(f"if q{s}s[0].filled:"):
            self.w(f"addr, _dqi = q{s}s[0].value")
            for n, dqi in enumerate(self.staddr_dqis):
                k = self.qindex[id(self.m.queues.store_data[dqi])]
                kw = "if" if n == 0 else "elif"
                with self.block(f"{kw} _dqi == {dqi}:"):
                    self._emit_su_site(s, k)
            with self.block("else:"):
                self.w(
                    'raise SimulationError('
                    '"codegen: unspecialized store-data queue")'
                )

    def _emit_su_site(self, s: int, k: int) -> None:
        with self.block(f"if not ({self.head_ready(k)}):"):
            self.w("su_dw += 1")
            self.w(f"q{k}_em += 1")
        with self.block("else:"):
            with self.block(f"if {self.port_busy('addr')}:"):
                self.w("su_mw += 1")
            with self.block("else:"):
                self.w(f"_bank = addr % {self.nbanks}")
                self.emit_accept("_bank")
                self.w("m_writes += 1")
                with self.block(f"if 0 <= addr < {self.msize}:"):
                    self.w(f"words[addr] = q{k}s[0].value")
                with self.block("else:"):
                    self.w(f"storage.write(addr, q{k}s[0].value)")
                # saq.pop() then data_queue.pop(), reference order
                self.emit_flush(s)
                self.w(f"q{s}_po += 1")
                self.w(f"fl_ap(q{s}_pl())")
                self.w(f"q{s}_n -= 1")
                self.emit_flush(k)
                if self.is_load(k):
                    self.emit_agg(-1)
                self.w(f"q{k}_po += 1")
                self.w(f"fl_ap(q{k}_pl())")
                self.w(f"q{k}_n -= 1")
                self.w("st_n += 1")
                self.w("_live = True")

    # -- prologue pieces --------------------------------------------------

    def _collect_queues(self) -> None:
        """Pre-pass: mark every statically referenced queue, record the
        stream/store/completion site lists and the stall causes either
        processor can ever record."""

        def note(lst: list, v) -> None:
            if v not in lst:
                lst.append(v)

        m = self.m
        for pc, instr in enumerate(m.ap.program):
            entry = m.ap._decoded[pc]
            kind = entry[0]
            if kind == _apm._A_LDQ:
                i = self.qindex.get(id(entry[1]))
                if i is not None:
                    self.used_queues.add(i)
                    note(self.comp_targets, i)
                note(self.ap_causes, "queue_full")
                note(self.ap_causes, "memory_busy")
            elif kind == _apm._A_FROMQ:
                i = self.qindex.get(id(entry[1]))
                if i is not None:
                    self.used_queues.add(i)
                note(self.ap_causes, entry[2])
            elif kind == _apm._A_STADDR:
                self.used_queues.add(self.saq_i)
                note(self.ap_causes, "saq_full")
                dqi = entry[1]
                if isinstance(dqi, int) and \
                        0 <= dqi < len(m.queues.store_data):
                    note(self.staddr_dqis, dqi)
                    self.used_queues.add(
                        self.qindex[id(m.queues.store_data[dqi])]
                    )
                else:
                    raise Unsupported(f"staddr data-queue index {dqi!r}")
            elif kind == _apm._A_BQ:
                self.used_queues.add(self.ebq_i)
                note(self.ap_causes, "lod_ebq")
            elif kind == _apm._A_STREAM:
                note(self.ap_causes, "stream_slots")
                note(self.ap_causes, "stream_queue_busy")
                op = instr.op
                if op is Op.STREAMLD:
                    t = self._resolve(instr.dest)
                    note(self.produce_sites, t)
                    note(self.comp_targets, t)
                elif op is Op.GATHER:
                    t = self._resolve(instr.dest)
                    note(self.produce_sites, t)
                    note(self.comp_targets, t)
                    note(self.index_sites, self._resolve(instr.srcs[0]))
                elif op is Op.STREAMST:
                    note(self.consume_sites, self._resolve(instr.srcs[0]))
                else:  # SCATTER
                    note(self.consume_sites, self._resolve(instr.srcs[0]))
                    note(self.index_sites, self._resolve(instr.srcs[1]))
        if self.has_staddr:
            self.used_queues.add(self.saq_i)
        for pc, instr in enumerate(m.ep.program):
            entry = m.ep._decoded[pc]
            if entry[0] != _epm._D_ALU:
                continue
            for tag, payload in entry[2]:
                if tag == _epm._O_QUEUE:
                    i = self.qindex.get(id(payload))
                    if i is not None:
                        self.used_queues.add(i)
                    note(self.ep_causes, "lq_empty")
            if entry[3] is not None:
                i = self.qindex.get(id(entry[3]))
                if i is not None:
                    self.used_queues.add(i)
                note(self.ep_causes, "q_full")

    def emit_queue_hoists(self) -> None:
        for i in sorted(self.used_queues):
            self.w(f"q{i} = machine._queue_list[{i}]")
            self.w(f"q{i}s = q{i}._slots")
            self.w(f"q{i}t = q{i}.stats")

    def emit_common_hoists(self) -> None:
        self.w("ap = machine.ap")
        self.w("ep = machine.ep")
        self.w("banked = machine.banked")
        self.w("mstats = banked.stats")
        self.w("storage = banked.storage")
        self.w("words = storage._words")
        self.w("bank_free = banked._bank_free_at")
        self.w("pba = mstats.per_bank_accesses")
        self.w("ap_stats = ap.stats")
        self.w("ep_stats = ep.stats")
        self.w("ap_st = ap_stats.stall_cycles")
        self.w("ep_st = ep_stats.stall_cycles")
        self.w("ap_regs = ap.registers")
        self.w("ep_regs = ep.registers")
        if self.uses_memory:
            self.w("comps = banked._completions")
        if self.has_stream:
            self.w("engine = machine.engine")
            self.w("engine_stats = engine.stats")
            self.w("streams = engine._streams")
            self.w("ap_prog = ap.program")
        if self.has_staddr:
            self.w("su_stats = machine.store_unit.stats")

    def header_comment(self) -> list[str]:
        m = self.m
        return [
            f"# specialized for access program "
            f"{m.ap.program.name!r} ({len(m.ap.program)} instrs), "
            f"execute program {m.ep.program.name!r} "
            f"({len(m.ep.program)} instrs)",
            f"# memory: {self.nbanks} banks, latency {self.latency}, "
            f"bank_busy {self.bank_busy}, "
            f"{self.accepts} accepts/cycle, {self.msize} words",
            f"# subsystems: streams={self.has_stream} "
            f"(produce={self.has_producing}, consume={self.has_consuming},"
            f" indexed={self.has_indexed}), store_unit={self.has_staddr}, "
            f"loads={self.uses_memory}",
        ]

    # -- fast-forward probe -----------------------------------------------

    def emit_horizon_inline(self, t: str) -> None:
        """Specialized ``machine.next_event_time(t)`` into ``_hz``.

        Emitted only at the jump site, where both processors are halted
        or stalled and the cycle made no progress, which prunes the
        probe statically: the EP contributes nothing (halted or stalled
        is ``None`` either way), the AP contributes only a
        ``memory_busy`` bank horizon (recomputed by pc dispatch over
        the program's LDQ sites — pc and registers are frozen while
        stalled), and the engine/store-unit/completion probes appear
        only when this program can ever wake them."""
        self.w("_hz = None")
        if self.uses_memory:
            with self.block("if _nc < _INF:"):
                self.w("_hz = _nc")
                with self.block(f"if _hz < {t}:"):
                    self.w(f"_hz = {t}")
        if self.has_ldq:
            with self.block('if ap_stalled == "memory_busy":'):
                ldq_pcs = [
                    (pc, entry)
                    for pc, entry in enumerate(self.m.ap._decoded)
                    if entry[0] == _apm._A_LDQ
                ]
                for n, (pc, entry) in enumerate(ldq_pcs):
                    kw = "if" if n == 0 else "elif"
                    a = self.ap_operand(entry[2])
                    b = self.ap_operand(entry[3])
                    with self.block(f"{kw} ap_pc == {pc}:"):
                        # the stalled ldq already ran as_address on this
                        # frozen (pc, registers) pair, so the sum is
                        # known integral
                        self.w(
                            f"_t5 = bank_free["
                            f"int({a} + {b}) % {self.nbanks}]"
                        )
                with self.block("else:"):
                    self.w(f"_t5 = {t}")
                with self.block(f"if _t5 < {t}:"):
                    self.w(f"_t5 = {t}")
                with self.block("if _hz is None or _t5 < _hz:"):
                    self.w("_hz = _t5")
        if self.has_staddr:
            s = self.saq_i
            with self.block(f"if {self.head_ready(s)}:"):
                self.w(f"_sa, _sdqi = q{s}s[0].value")
                for n, dqi in enumerate(self.staddr_dqis):
                    k = self.qindex[id(self.m.queues.store_data[dqi])]
                    kw = "if" if n == 0 else "elif"
                    with self.block(f"{kw} _sdqi == {dqi}:"):
                        self.w(f"_sd = q{k}s")
                        self.w(f"_sdn = q{k}_n")
                    if n == len(self.staddr_dqis) - 1:
                        with self.block("else:"):
                            self.w("_sd = ()")
                            self.w("_sdn = 0")
                with self.block("if _sdn and _sd[0].filled:"):
                    self.w(f"_t4 = bank_free[_sa % {self.nbanks}]")
                    with self.block(f"if _t4 < {t}:"):
                        self.w(f"_t4 = {t}")
                    with self.block("if _hz is None or _t4 < _hz:"):
                        self.w("_hz = _t4")
        if self.has_stream:
            if self._shadow_streams:
                with self.block("for _j in range(_ns):"):
                    self._emit_horizon_stream_shadow(t)
            else:
                with self.block("for _d in streams:"):
                    self._emit_horizon_stream(t)

    def _emit_horizon_stream_shadow(self, t: str) -> None:
        """Per-stream probe body over the shadow lists (dense streams
        only): issuability by site id, bank horizon from the maintained
        next address."""
        self.w("_site = s_site[_j]")
        for sid, (kind, k) in enumerate(self._stream_sites()):
            kw = "if" if sid == 0 else "elif"
            with self.block(f"{kw} _site == {sid}:"):
                if kind == "p":
                    cap = self.m._queue_list[k].capacity
                    with self.block(f"if q{k}_n >= {cap}:"):
                        self.w("continue")
                else:
                    with self.block(f"if not ({self.head_ready(k)}):"):
                        self.w("continue")
        self.w(f"_t3 = bank_free[s_addr[_j] % {self.nbanks}]")
        with self.block(f"if _t3 <= {t}:"):
            self.w(f"_hz = {t}")
            self.w("break")
        with self.block("if _hz is None or _t3 < _hz:"):
            self.w("_hz = _t3")

    def _emit_horizon_stream(self, t: str) -> None:
        def indexed_case() -> None:
            self.w("_iqv = _d.index_queue")
            for n, k in enumerate(self.index_sites):
                kw = "if" if n == 0 else "elif"
                with self.block(f"{kw} _iqv is q{k}:"):
                    with self.block(f"if not ({self.head_ready(k)}):"):
                        self.w("continue")
                    self.w(f"_iv = q{k}s[0].value")
            with self.block("else:"):
                self.w(
                    'raise SimulationError('
                    '"codegen: unspecialized stream index queue")'
                )
            self.w("_ii = int(_iv)")
            with self.block("if _ii != _iv:"):
                # malformed index: probe says "now" so the scheduler
                # takes a live step and the issue path raises as usual
                self.w(f"_hz = {t}")
                self.w("break")
            self.w("_haddr = _d.base + _ii")

        dense = "_haddr = _d.base + _d.issued * _d.stride"
        if self._all_indexed():
            indexed_case()
        elif self.has_indexed:
            with self.block("if _d.indexed:"):
                indexed_case()
            with self.block("else:"):
                self.w(dense)
        else:
            self.w(dense)

        def produce_check() -> None:
            self.w("_t2 = _d.target")
            for n, k in enumerate(self.produce_sites):
                kw = "if" if n == 0 else "elif"
                cap = self.m._queue_list[k].capacity
                with self.block(f"{kw} _t2 is q{k}:"):
                    with self.block(f"if q{k}_n >= {cap}:"):
                        self.w("continue")
            with self.block("else:"):
                self.w(
                    'raise SimulationError('
                    '"codegen: unspecialized stream target")'
                )

        def consume_check() -> None:
            self.w("_dqv = _d.data_queue")
            for n, k in enumerate(self.consume_sites):
                kw = "if" if n == 0 else "elif"
                with self.block(f"{kw} _dqv is q{k}:"):
                    with self.block(f"if not ({self.head_ready(k)}):"):
                        self.w("continue")
            with self.block("else:"):
                self.w(
                    'raise SimulationError('
                    '"codegen: unspecialized stream data queue")'
                )

        if self.has_producing and self.has_consuming:
            with self.block("if _d.produces:"):
                produce_check()
            with self.block("else:"):
                consume_check()
        elif self.has_producing:
            produce_check()
        else:
            consume_check()
        self.w(f"_t3 = bank_free[_haddr % {self.nbanks}]")
        with self.block(f"if _t3 <= {t}:"):
            self.w(f"_hz = {t}")
            self.w("break")
        with self.block("if _hz is None or _t3 < _hz:"):
            self.w("_hz = _t3")

    # -- stall snapshot/replay, specialized to this program's sites -------

    def _snapshot_fields(self) -> list[tuple[str, str]]:
        """(current-value expression, replay bump statement) per counter
        a fully-idle cycle of *this* program can increment — the static
        projection of ``stall_snapshot`` / ``_replay_fast``."""
        fields: list[tuple[str, str]] = []
        for c in self.ap_causes:
            ref = self.ap_cause_ref(c)
            if ref is not None:
                fields.append((ref, f"{ref} += _d * _count"))
            else:
                fields.append((
                    f"ap_st.get({c!r}, 0)",
                    f"ap_st[{c!r}] += _d * _count",
                ))
        if self.has_lod:
            fields.append(("ap_lod", "ap_lod += _d * _count"))
        for c in self.ep_causes:
            ref = self.ep_cause_ref(c)
            if ref is not None:
                fields.append((ref, f"{ref} += _d * _count"))
            else:
                fields.append((
                    f"ep_st.get({c!r}, 0)",
                    f"ep_st[{c!r}] += _d * _count",
                ))
        if self.has_stream:
            fields.append(("eng_blocked", "eng_blocked += _d * _count"))
        if self.has_staddr:
            fields.append(("su_dw", "su_dw += _d * _count"))
            fields.append(("su_mw", "su_mw += _d * _count"))
        for i in sorted(self.used_queues):
            fields.append((f"q{i}_em", f"q{i}_em += _d * _count"))
            fields.append((f"q{i}_fu", f"q{i}_fu += _d * _count"))
        return fields

    def _emit_snapshot(self, fields) -> None:
        exprs = ", ".join(cur for cur, _ in fields)
        if len(fields) == 1:
            exprs += ","
        self.w(f"snapshot = ({exprs})")

    def _emit_replay(self, fields) -> None:
        for idx, (cur, bump) in enumerate(fields):
            self.w(f"_d = {cur} - snapshot[{idx}]")
            with self.block("if _d:"):
                self.w(bump)
        self.w("cyc += _count")

    # -- assembly ---------------------------------------------------------

    def generate(self) -> str:
        self.lines = []
        for line in self.header_comment():
            self.w(line)
        self.w(
            "def __sma_codegen_loop__("
            "machine, max_cycles, deadlock_window, clock, agg):"
        )
        self.depth += 1
        self.emit_common_hoists()
        self.emit_queue_hoists()
        # localized queue state: bound mutators, traffic/stall counters
        # and the lazy-occupancy fields, synced back in the finally
        for i in sorted(self.used_queues):
            self.w(f"q{i}_ap = q{i}s.append")
            self.w(f"q{i}_pl = q{i}s.popleft")
            self.w(f"q{i}_n = len(q{i}s)")
            self.w(f"q{i}_em = q{i}t.empty_stalls")
            self.w(f"q{i}_fu = q{i}t.full_stalls")
            self.w(f"q{i}_po = q{i}t.pops")
            self.w(f"q{i}_pu = q{i}t.pushes")
            self.w(f"q{i}_sa = q{i}t.samples")
            self.w(f"q{i}_oc = q{i}t.occupancy_sum")
            self.w(f"q{i}_mx = q{i}t.occupancy_max")
            # occupancy histogram as a dense list (indices 0..capacity),
            # merged back into the stats dict on exit
            self.w(
                f"q{i}_hl = [0] * {self.m._queue_list[i].capacity + 1}"
            )
            self.w(f"q{i}_sy = q{i}._synced")
        self.w("agg_total = agg.total")
        self.w("agg_max = agg.max_seen")
        self.w("agg_sync = agg._synced")
        # localized processor / component / memory state
        self.w("ap_pc = ap.pc")
        self.w("ap_halted = ap.halted")
        self.w("ap_stalled = ap._stalled_on")
        self.w("ep_pc = ep.pc")
        self.w("ep_halted = ep.halted")
        self.w("ep_stalled = ep._stalled_on")
        self.w("ap_i = ap_stats.instructions")
        self.w("ep_i = ep_stats.instructions")
        self.w("ap_lod = ap_stats.lod_events")
        # localized stall-cause counters (stream-start causes stay
        # dict-based — the delegated reference method records them)
        for c in self.ap_causes:
            ref = self.ap_cause_ref(c)
            if ref is not None:
                self.w(f"{ref} = ap_st.get({c!r}, 0)")
        for c in self.ep_causes:
            ref = self.ep_cause_ref(c)
            if ref is not None:
                self.w(f"{ref} = ep_st.get({c!r}, 0)")
        if self.has_stream:
            self.w("req_n = engine_stats.requests_issued")
            self.w("eng_blocked = engine_stats.blocked_cycles")
            self.w("rr = engine._rr")
            self.w("_ns = len(streams)")
            if self._shadow_streams:
                self._emit_stream_shadow_refresh()
        else:
            self.w("req_n = 0")
        if self.has_staddr:
            self.w("st_n = su_stats.stores_issued")
            self.w("su_dw = su_stats.data_wait_cycles")
            self.w("su_mw = su_stats.memory_wait_cycles")
        else:
            self.w("st_n = 0")
        self.w("m_reads = mstats.reads")
        self.w("m_writes = mstats.writes")
        self.w("mcomp = mstats.completions")
        self.w("mbusy = mstats.busy_bank_cycles")
        self.w("iss_cyc, iss_cnt = banked._issues_at")
        if self.uses_memory:
            self.w("seq = banked._seq")
            # completions ride a local FIFO during the run (see
            # emit_completion); the heap-as-FIFO equivalence needs every
            # in-flight entry to share this run's constant latency, so
            # entries from a previous run are not admissible
            with self.block("if comps:"):
                self.w(
                    'raise SimulationError('
                    '"codegen: completion heap must be empty at entry")'
                )
            self.w("cq = deque()")
            self.w("cq_ap = cq.append")
            self.w("cq_pl = cq.popleft")
            self.w('_INF = float("inf")')
            self.w("_nc = _INF")
        # slot freelist: popped tokens are dead (filled, no pending
        # completion) and are recycled by emit_reserve_token/emit_push
        self.w("fl = []")
        self.w("fl_ap = fl.append")
        self.w("fl_po = fl.pop")
        self.w("cyc = machine.cycle")
        self.w("last_progress_cycle = 0")
        # the reference seeds last_progress to -1, so its first executed
        # cycle always registers progress; seeding the flag true matches
        self.w("_live = True")
        with self.block("try:"):
            self._emit_loop()
        with self.block("finally:"):
            self._emit_sync(full=True)
        self.depth -= 1
        return "\n".join(self.lines) + "\n"

    def _emit_sync(self, full: bool = False) -> None:
        self.w("ap.pc = ap_pc")
        self.w("ap.halted = ap_halted")
        self.w("ap._stalled_on = ap_stalled")
        self.w("ep.pc = ep_pc")
        self.w("ep.halted = ep_halted")
        self.w("ep._stalled_on = ep_stalled")
        # stall-cause write-back (partial sync needs it too: the
        # deadlock report reads the stats dicts); a zero counter is
        # never inserted — the interpreters only create keys on the
        # first stall
        for c in self.ap_causes:
            ref = self.ap_cause_ref(c)
            if ref is not None:
                with self.block(f"if {ref}:"):
                    self.w(f"ap_st[{c!r}] = {ref}")
        for c in self.ep_causes:
            ref = self.ep_cause_ref(c)
            if ref is not None:
                with self.block(f"if {ref}:"):
                    self.w(f"ep_st[{c!r}] = {ref}")
        if self._shadow_streams:
            # live descriptors carry a stale issued count while the
            # shadow lists are authoritative; the deadlock report (and
            # any exit-path observer) reads the descriptors
            self._emit_stream_issued_writeback()
        if not full:
            return
        self.w("machine.cycle = cyc")
        self.w("ap_stats.instructions = ap_i")
        self.w("ep_stats.instructions = ep_i")
        self.w("ap_stats.lod_events = ap_lod")
        if self.has_stream:
            self.w("engine_stats.requests_issued = req_n")
            self.w("engine_stats.blocked_cycles = eng_blocked")
            self.w("engine._rr = rr")
        if self.has_staddr:
            self.w("su_stats.stores_issued = st_n")
            self.w("su_stats.data_wait_cycles = su_dw")
            self.w("su_stats.memory_wait_cycles = su_mw")
        self.w("mstats.reads = m_reads")
        self.w("mstats.writes = m_writes")
        self.w("mstats.completions = mcomp")
        self.w("mstats.busy_bank_cycles = mbusy")
        self.w("banked._issues_at = (iss_cyc, iss_cnt)")
        for i in sorted(self.used_queues):
            self.w(f"q{i}t.empty_stalls = q{i}_em")
            self.w(f"q{i}t.full_stalls = q{i}_fu")
            self.w(f"q{i}t.pops = q{i}_po")
            self.w(f"q{i}t.pushes = q{i}_pu")
            self.w(f"q{i}t.samples = q{i}_sa")
            self.w(f"q{i}t.occupancy_sum = q{i}_oc")
            self.w(f"q{i}t.occupancy_max = q{i}_mx")
            self.w(f"_h = q{i}t.histogram")
            with self.block(f"for _n2, _sp in enumerate(q{i}_hl):"):
                with self.block("if _sp:"):
                    self.w("_h[_n2] = _h.get(_n2, 0) + _sp")
            self.w(f"q{i}._synced = q{i}_sy")
        self.w("agg.total = agg_total")
        self.w("agg.max_seen = agg_max")
        self.w("agg._synced = agg_sync")
        if self.uses_memory:
            self.w("banked._seq = seq")
            # re-box marker completions (left by a budget abort) into
            # the partial(queue.fill, token) callback shape the
            # checkpoint layer and the interpreters expect; the deque
            # is (time, seq)-sorted and the heap is empty (entry
            # requirement), so sorted appends rebuild a valid heap
            with self.block("for _e in cq:"):
                self.w("_k = _e[2]")
                for n, qi in enumerate(self.comp_targets):
                    kw = "if" if n == 0 else "elif"
                    with self.block(f"{kw} _k == {qi}:"):
                        self.w(
                            f"comps.append((_e[0], _e[1], "
                            f"partial(q{qi}.fill, _e[3]), _e[4]))"
                        )

    def _emit_delivery(self) -> None:
        """Inline completion delivery: pop every due marker entry and
        apply ``queue.fill`` by static dispatch on the queue index
        (pre-existing callback entries cannot occur — the run adapter
        requires an empty completion heap at entry)."""
        self.w("delivered = False")
        with self.block("if _nc <= now:"):
            with self.block("while cq and cq[0][0] <= now:"):
                self.w("_e = cq_pl()")
                self.w("mcomp += 1")
                self.w("_k = _e[2]")
                for n, qi in enumerate(self.comp_targets):
                    kw = "if" if n == 0 else "elif"
                    name = self.m._queue_list[qi].name
                    msg = f"{name}: slot filled twice"
                    with self.block(f"{kw} _k == {qi}:"):
                        self.w("_tok = _e[3]")
                        with self.block("if _tok.filled:"):
                            self.w(f"raise QueueError({msg!r})")
                        self.w("_tok.filled = True")
                        self.w("_tok.value = _e[4]")
                        self.w(f"q{qi}_pu += 1")
                with self.block("else:"):
                    self.w(
                        'raise SimulationError('
                        '"codegen: unspecialized completion target")'
                    )
            self.w("_nc = cq[0][0] if cq else _INF")
            self.w("delivered = True")

    def _emit_loop(self) -> None:
        fields = self._snapshot_fields()
        done_parts = ["ap_halted", "ep_halted"]
        if self.has_stream:
            done_parts.append("not _ns")
        if self.has_staddr:
            done_parts.append(f"not q{self.saq_i}_n")
        if self.uses_memory:
            done_parts.append("not cq")
        with self.block(
            f"while not ({' and '.join(done_parts)}):"
        ):
            self.w("now = cyc")
            with self.block("if now >= max_cycles:"):
                self.w(
                    'raise SimulationError('
                    '"exceeded cycle budget %s" % (max_cycles,))'
                )
            if self.uses_memory:
                self._emit_delivery()
            self.w("snapshot = None")
            plan_parts = []
            if self.uses_memory:
                plan_parts.append("not delivered")
            plan_parts.append("(ap_halted or ap_stalled is not None)")
            plan_parts.append("(ep_halted or ep_stalled is not None)")
            # the reference probes the horizon here and only snapshots
            # when no event is imminent — worthwhile when the snapshot
            # allocates stats copies, but this snapshot is a flat tuple
            # of locals, far cheaper than the probe.  Snapshot
            # unconditionally; an imminent event just clamps the jump
            # target to ``cyc`` below (``_count == 0``, no replay), so
            # results are unchanged.
            with self.block(f"if {' and '.join(plan_parts)}:"):
                self._emit_snapshot(fields)
            if self.has_staddr:
                with self.block(f"if q{self.saq_i}_n:"):
                    self.emit_su_body()
            if self.has_stream:
                with self.block("if _ns:"):
                    self.emit_engine_body()
            with self.block("if not ap_halted:"):
                self.emit_ap_dispatch()
            with self.block("if not ep_halted:"):
                self.emit_ep_dispatch()
            self.w("cyc = now + 1")
            # the reference re-sums its progress counters and compares;
            # every increment site here also raises the ``_live`` flag
            # (see emit_live), which is the same predicate without the
            # per-cycle six-term sum
            with self.block("if _live:"):
                self.w("_live = False")
                self.w("last_progress_cycle = cyc")
                self.w("continue")
            with self.block("if snapshot is not None:"):
                self.emit_horizon_inline("cyc")
                self.w("_tgt = _hz")
                self.w("_bound = last_progress_cycle + deadlock_window + 1")
                with self.block("if _tgt is None or _tgt > _bound:"):
                    self.w("_tgt = _bound")
                with self.block("if _tgt > max_cycles:"):
                    self.w("_tgt = max_cycles")
                self.w("_count = _tgt - cyc")
                with self.block("if _count > 0:"):
                    self._emit_replay(fields)
            with self.block(
                "if cyc - last_progress_cycle > deadlock_window:"
            ):
                self._emit_sync()
                self.w("machine.cycle = cyc")
                self.w("raise SimulationError(")
                self.w(
                    '    "deadlock: no forward progress for %s cycles'
                    ' at cycle %s; %s"'
                )
                self.w(
                    "    % (deadlock_window, cyc, "
                    "machine.deadlock_report()))"
                )

