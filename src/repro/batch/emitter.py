"""Program-specialized lane stepper for the SoA batch engine.

:class:`~repro.batch.engine.LaneEngine` holds the lane state; this
module is the one place that holds each op's lane semantics.  It walks
the decoded access/execute program pair *once* per program key and
writes out the exact numpy lane-stepper this program needs, fused
across the whole lane axis:

* each pc becomes a block function in a per-instruction table, with
  opcodes, operands, queue ids, stall-cause ids and branch targets
  baked in as literals (ALU ops become inline numpy expressions with
  the exact CPython-float semantics of :data:`repro.isa.ALU_FUNCS`);
* statically dead probes are elided — no store-unit body without a
  ``staddr``, no stream-engine body without a stream op, no completion
  delivery or pending-ring bookkeeping for a program that never issues
  a load, no gather/scatter eligibility matrix for purely strided
  streams, occupancy summed over only the load queues the program can
  fill;
* per-queue *plane views* (``q_count[:, qid]`` …) are hoisted to
  function locals once, so every hot queue probe is a 1-D gather
  instead of a 2-D fancy index, and scalar liveness counters
  (``ap_live``/``ep_live``/``pend_live``) skip whole component steps
  once they go quiet;
* each stall site knows its cause statically, so the stall/first-seen
  bookkeeping — including the LOD episode-entry check, which only LOD
  sites emit — is fused into the block, and the per-lane idle-jump
  replay in the loop tail picks those causes up in closed form.

Cold paths that run at most once per stream per lane (descriptor
creation, memory growth, the deadlock diagnostic) delegate back to the
engine instance; they mutate the same arrays the generated locals
alias.

Every ``lane_dict()`` and the final memory image equal the per-point
path's result for that lane's config, property-tested in
``tests/test_batch_codegen.py`` and ``tests/test_batch_equivalence.py``.
Programs the emitter cannot specialize raise :class:`Unsupported`; the
cache layer (:mod:`repro.batch.cache`) logs and negative-caches them,
and their jobs run per point (see ARCHITECTURE section 20 for the full
contract).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import SimulationError
from ..isa import Op
from . import decode as D

#: emission guard: a pathological program would expand into an
#: unreasonably large module; its jobs run per point instead
MAX_PROGRAM_LEN = 2000


class Unsupported(Exception):
    """The program cannot be specialized; its jobs run per point."""


# -- runtime helpers called by the generated code ------------------------

_BIG = np.int64(1) << 62


def _div(a, b):
    if np.any(b == 0):
        raise ZeroDivisionError("DIV by zero in simulated program")
    return a / b


def _mod(a, b):
    if np.any(b == 0):
        raise ZeroDivisionError("MOD by zero in simulated program")
    r = np.fmod(a, b)
    fix = (r != 0) & ((r < 0) != (b < 0))
    return np.where(fix, r + b, r)


def _sqrt(a):
    if np.any(a < 0):
        raise ValueError("math domain error")
    return np.sqrt(a)


def _addr(values):
    """Vectorized twin of ``LaneEngine._as_addr``."""
    addr = values.astype(np.int64)
    if np.any(addr != values):
        bad = values[addr != values][0]
        raise SimulationError(f"non-integral address {bad!r}")
    return addr


def runtime_namespace() -> dict:
    """Fresh globals for ``exec``-ing one generated lane stepper.

    A generated body may only reach machine state through its
    ``engine`` parameter and these process-wide-stable helpers, so one
    artifact is reusable across every lane group with the same key.
    """
    return {
        "np": np,
        "SimulationError": SimulationError,
        "_BIG": _BIG,
        "_div": _div,
        "_mod": _mod,
        "_sqrt": _sqrt,
        "_addr": _addr,
    }


def _alu_np_expr(op: Op, a: list[str]) -> str:
    """Numpy expression with the exact semantics of
    :data:`repro.isa.ALU_FUNCS` (IEEE-754 double throughout; ``min``/
    ``max`` tie order and the ``%`` sign fold are spelled out where a
    numpy ufunc would differ).  ``a`` holds operand sub-expressions
    (plain temps or float literals)."""

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
    if op is Op.MIN:  # python min(a, b): b if b < a else a
        need(2)
        return f"np.where({a[1]} < {a[0]}, {a[1]}, {a[0]})"
    if op is Op.MAX:  # python max(a, b): b if b > a else a
        need(2)
        return f"np.where({a[1]} > {a[0]}, {a[1]}, {a[0]})"
    if op is Op.ABS:
        need(1)
        return f"np.abs({a[0]})"
    if op is Op.NEG:
        need(1)
        return f"(-({a[0]}))"
    if op is Op.SQRT:
        need(1)
        return f"_sqrt({a[0]})"
    if op is Op.FLOOR:
        need(1)
        return f"np.floor({a[0]})"
    if op is Op.MOV:
        need(1)
        return f"{a[0]}"
    if op is Op.CMPLT:
        need(2)
        return f"np.where({a[0]} < {a[1]}, 1.0, 0.0)"
    if op is Op.CMPLE:
        need(2)
        return f"np.where({a[0]} <= {a[1]}, 1.0, 0.0)"
    if op is Op.CMPEQ:
        need(2)
        return f"np.where({a[0]} == {a[1]}, 1.0, 0.0)"
    if op is Op.CMPNE:
        need(2)
        return f"np.where({a[0]} != {a[1]}, 1.0, 0.0)"
    if op is Op.SEL:
        need(3)
        return f"np.where({a[0]} != 0, {a[1]}, {a[2]})"
    raise Unsupported(f"ALU op {op} has no vectorized emission")


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def w(self, line: str = "") -> None:
        self.lines.append("    " * self.depth + line if line else "")

    __call__ = w

    @contextmanager
    def block(self, header: str):
        self.w(header)
        self.depth += 1
        yield
        self.depth -= 1


class LaneLoopEmitter:
    """Emit ``__batch_lane_loop__(engine, max_cycles, deadlock_window)``
    for one decoded program pair + queue layout."""

    def __init__(self, engine):
        self.engine = engine
        self.ap = engine.ap_prog
        self.ep = engine.ep_prog
        self.qlay = engine.qlay
        if len(self.ap) == 0 or len(self.ep) == 0:
            raise Unsupported("empty program")
        if len(self.ap) + len(self.ep) > MAX_PROGRAM_LEN:
            raise Unsupported("program too large to specialize")

        # -- static analysis over the decoded entries -------------------
        self.views: set[int] = set()       # queues probed by literal id
        self.stream_kinds: set[int] = set()
        self.staddr_dqis: set[int] = set()
        self.filled_loads: set[int] = set()  # load queues a fill targets
        self.has_ldq = False
        for entry in self.ap:
            kind = entry[0]
            if kind == D.A_LDQ:
                self.has_ldq = True
                self.views.add(entry[1])
                if entry[1] < self.qlay.num_load:
                    self.filled_loads.add(entry[1])
            elif kind == D.A_FROMQ:
                self.views.add(entry[1])
            elif kind == D.A_STADDR:
                self.staddr_dqis.add(entry[1])
                self.views.add(self.qlay.saq)
            elif kind == D.A_BQ:
                self.views.add(self.qlay.ebq)
            elif kind == D.A_STREAM:
                self.stream_kinds.add(entry[1])
                if entry[2] >= 0 and entry[2] < self.qlay.num_load:
                    self.filled_loads.add(entry[2])
            elif kind not in (
                D.A_ALU, D.A_DECBNZ, D.A_BR, D.A_JMP, D.A_HALT, D.A_NOP,
            ):  # pragma: no cover - exhaustive over decode tags
                raise Unsupported(f"unknown AP kind tag {kind}")
        for entry in self.ep:
            kind = entry[0]
            if kind == D.E_ALU:
                for tag, payload in entry[2]:
                    if tag == D.Q:
                        self.views.add(payload)
                if entry[3] is not None:
                    self.views.add(entry[3])
            elif kind not in (
                D.E_BR, D.E_DECBNZ, D.E_JMP, D.E_HALT, D.E_NOP,
            ):  # pragma: no cover - exhaustive over decode tags
                raise Unsupported(f"unknown EP kind tag {kind}")
        self.has_stream = bool(self.stream_kinds)
        self.has_staddr = bool(self.staddr_dqis)
        # the single dq every STADDR names, or None when they diverge
        self.single_dq = (
            self.qlay.sdq(next(iter(self.staddr_dqis)))
            if len(self.staddr_dqis) == 1 else None
        )
        if self.single_dq is not None:
            self.views.add(self.single_dq)
        producing = self.stream_kinds & {D.S_LOAD, D.S_GATHER}
        self.has_pend = self.has_ldq or bool(producing)
        self.uses_memory = (
            self.has_pend or self.has_staddr
            or bool(self.stream_kinds & {D.S_STORE, D.S_SCATTER})
        )

    # -- operand / fragment helpers -------------------------------------

    def _src(self, operand, regs: str, lanes: str = "lanes") -> str:
        tag, payload = operand
        if tag == D.R:
            return f"{regs}[{lanes}, {payload}]"
        if tag == D.I:
            val = float(payload)
            if val != val or val in (float("inf"), float("-inf")):
                raise Unsupported("non-finite immediate")
            return repr(val)
        raise Unsupported(f"operand tag {tag!r}")

    def _addr_expr(self, a, b, regs: str) -> str:
        """``_as_addr(read(a) + read(b))`` with immediate folding."""
        if a[0] == D.I and b[0] == D.I:
            val = float(a[1]) + float(b[1])
            if val != int(val):
                return (
                    "_addr(np.full(lanes.size, "
                    f"{val!r}, dtype=np.float64))"
                )
            return (
                f"np.full(lanes.size, {int(val)}, dtype=np.int64)"
            )
        ea = self._src(a, regs)
        eb = self._src(b, regs)
        if b[0] == D.I and float(b[1]) == 0.0:
            return f"_addr({ea})"
        if a[0] == D.I and float(a[1]) == 0.0:
            return f"_addr({eb})"
        return f"_addr({ea} + {eb})"

    def _emit_check_addr(self, w: _Writer, addr: str) -> None:
        """Inline bounds probe; the rare out-of-range / growth path
        delegates to the engine (which raises the exact message or
        reallocates), then refreshes the local ``mem`` alias."""
        # scalar reductions only; addr >= msize implies >= alloc, so
        # one comparison routes both the raise and the growth path to
        # the engine delegate
        with w.block(
            f"if int({addr}.min(initial=0)) < 0 "
            f"or int({addr}.max(initial=-1)) >= engine.alloc:"
        ):
            w(f"engine._check_addr({addr})")
            w("mem = engine.mem")

    def _emit_ap_stall(
        self, w: _Writer, stalled_expr: str, cause: int
    ) -> None:
        w(f"_nf = {stalled_expr}")
        with w.block("if _nf.size:"):
            w(f"s_apst[_nf, {cause}] += 1")
            w(f"_f1 = s_apfirst[_nf, {cause}] == _BIG")
            with w.block("if _f1.any():"):
                w("_ff = _nf[_f1]")
                w(f"s_apfirst[_ff, {cause}] = now[_ff]")
            if cause in D.LOD_CAUSES:
                w(f"_en = ap_stalled[_nf] != {cause}")
                w("s_lod[_nf[_en]] += 1")
            w(f"ap_stalled[_nf] = {cause}")

    def _emit_ep_stall(
        self, w: _Writer, stalled_expr: str, cause: int
    ) -> None:
        w(f"_nf = {stalled_expr}")
        with w.block("if _nf.size:"):
            w(f"s_epst[_nf, {cause}] += 1")
            w(f"_f1 = s_epfirst[_nf, {cause}] == _BIG")
            with w.block("if _f1.any():"):
                w("_ff = _nf[_f1]")
                w(f"s_epfirst[_ff, {cause}] = now[_ff]")
            w(f"ep_stalled[_nf] = {cause}")

    def _emit_gate(
        self,
        w: _Writer,
        mask: str,
        side: str,
        cause: int,
        extras: tuple[str, ...] = (),
    ) -> None:
        """Filter ``lanes`` by boolean ``mask``, charging stall
        bookkeeping to the failing lanes.  The all-pass round — the hot
        case at steady state — costs one reduction and no index ops;
        ``extras`` are lane-aligned locals filtered alongside."""
        with w.block(f"if not {mask}.all():"):
            stall = (
                self._emit_ap_stall if side == "ap"
                else self._emit_ep_stall
            )
            stall(w, f"lanes[~{mask}]", cause)
            w(f"lanes = lanes[{mask}]")
            with w.block("if lanes.size == 0:"):
                w("return")
            for name in extras:
                w(f"{name} = {name}[{mask}]")

    def _emit_ap_retire(self, w: _Writer, new_pc: str | None) -> None:
        w("s_apinstr[lanes] += 1")
        w("ap_stalled[lanes] = -1")
        if new_pc is None:
            w("ap_pc[lanes] += 1")
        else:
            w(f"ap_pc[lanes] = {new_pc}")
        w("progress[lanes] = True")

    def _emit_ep_retire(self, w: _Writer, new_pc: str | None) -> None:
        w("s_epinstr[lanes] += 1")
        w("ep_stalled[lanes] = -1")
        if new_pc is None:
            w("ep_pc[lanes] += 1")
        else:
            w(f"ep_pc[lanes] = {new_pc}")
        w("progress[lanes] = True")

    def _ready_expr(self, q: int, lanes: str = "lanes") -> str:
        return (
            f"(q{q}c[{lanes}] > 0) "
            f"& (q{q}f[{lanes}, q{q}h[{lanes}]] <= now[{lanes}])"
        )

    def _emit_pop(self, w: _Writer, q: int, dest: str, tmp: str) -> None:
        w(f"{tmp} = q{q}h[lanes]")
        w(f"{dest} = q{q}v[lanes, {tmp}]")
        w(f"q{q}h[lanes] = ({tmp} + 1) % q{q}cap[lanes]")
        w(f"q{q}c[lanes] -= 1")

    def _emit_put(
        self, w: _Writer, q: int, value: str, fill: str,
        slot: str = "_s",
    ) -> None:
        w(f"{slot} = (q{q}h[lanes] + q{q}c[lanes]) % q{q}cap[lanes]")
        w(f"q{q}v[lanes, {slot}] = {value}")
        w(f"q{q}f[lanes, {slot}] = {fill}")
        w(f"q{q}c[lanes] += 1")
        with w.block("if trk:"):
            w(f"q_peak[lanes, {q}] = np.maximum("
              f"q_peak[lanes, {q}], q{q}c[lanes])")

    def _emit_schedule_fill(self, w: _Writer, q: int, addr: str) -> None:
        """Inline ``_schedule_fill`` for a literal target queue."""
        self._emit_check_addr(w, addr)
        w("_fill = now[lanes] + latency[lanes]")
        self._emit_put(w, q, f"mem[lanes, {addr}]", "_fill")
        w("_ps = (pend_head[lanes] + pend_count[lanes]) % P")
        w("pend_t[lanes, _ps] = _fill")
        w("pend_count[lanes] += 1")
        w("pend_live += lanes.size")
        w("s_reads[lanes] += 1")
        w("progress[lanes] = True")

    # -- per-instruction blocks ------------------------------------------

    def _emit_ap_block(self, w: _Writer, p: int, entry) -> None:
        kind = entry[0]
        nonlocals = []
        if kind == D.A_LDQ:
            nonlocals = ["mem", "pend_live"]
        elif kind == D.A_HALT:
            nonlocals = ["ap_live"]
        with w.block(f"def _ap{p}(lanes):"):
            if nonlocals:
                w(f"nonlocal {', '.join(nonlocals)}")
            if kind == D.A_ALU:
                _, op, srcs, dest = entry
                temps = []
                for i, s in enumerate(srcs):
                    e = self._src(s, "ap_regs")
                    if s[0] == D.I:
                        temps.append(e)
                    else:
                        w(f"_a{i} = {e}")
                        temps.append(f"_a{i}")
                w(f"ap_regs[lanes, {dest}] = "
                  f"{_alu_np_expr(op, temps)}")
                self._emit_ap_retire(w, None)
            elif kind == D.A_LDQ:
                _, qid, a, b = entry
                w(f"addr = {self._addr_expr(a, b, 'ap_regs')}")
                w(f"_free = q{qid}c[lanes] < q{qid}cap[lanes]")
                self._emit_gate(
                    w, "_free", "ap", D.C_QUEUE_FULL, ("addr",)
                )
                w("bank = addr % nbanks[lanes]")
                w("_ok = ~port_used[lanes] "
                  "& (bank_free[lanes, bank] <= now[lanes])")
                self._emit_gate(
                    w, "_ok", "ap", D.C_MEMORY_BUSY, ("addr", "bank")
                )
                w("port_used[lanes] = True")
                w("bank_free[lanes, bank] = now[lanes] "
                  "+ bank_busy[lanes]")
                self._emit_schedule_fill(w, qid, "addr")
                self._emit_ap_retire(w, None)
            elif kind == D.A_DECBNZ:
                _, reg, target = entry
                w(f"ap_regs[lanes, {reg}] -= 1")
                w(f"_t = ap_regs[lanes, {reg}] != 0")
                self._emit_ap_retire(
                    w, f"np.where(_t, {target}, {p + 1})"
                )
            elif kind == D.A_FROMQ:
                _, qid, cause, dest = entry
                w(f"_h = q{qid}h[lanes]")
                w(f"_rdy = (q{qid}c[lanes] > 0) "
                  f"& (q{qid}f[lanes, _h] <= now[lanes])")
                self._emit_gate(w, "_rdy", "ap", cause, ("_h",))
                w(f"ap_regs[lanes, {dest}] = q{qid}v[lanes, _h]")
                w(f"q{qid}h[lanes] = (_h + 1) % q{qid}cap[lanes]")
                w(f"q{qid}c[lanes] -= 1")
                self._emit_ap_retire(w, None)
            elif kind == D.A_STADDR:
                _, dqi, a, b = entry
                saq = self.qlay.saq
                w(f"_free = q{saq}c[lanes] < q{saq}cap[lanes]")
                self._emit_gate(w, "_free", "ap", D.C_SAQ_FULL)
                w(f"addr = {self._addr_expr(a, b, 'ap_regs')}")
                self._emit_put(
                    w, saq, "addr.astype(np.float64)", "now[lanes]"
                )
                w(f"saq_dqi[lanes, _s] = {dqi}")
                self._emit_ap_retire(w, None)
            elif kind == D.A_BQ:
                _, sense, target = entry
                ebq = self.qlay.ebq
                w(f"_h = q{ebq}h[lanes]")
                w(f"_rdy = (q{ebq}c[lanes] > 0) "
                  f"& (q{ebq}f[lanes, _h] <= now[lanes])")
                self._emit_gate(
                    w, "_rdy", "ap", D.C_LOD_EBQ, ("_h",)
                )
                w(f"_v = q{ebq}v[lanes, _h]")
                w(f"q{ebq}h[lanes] = (_h + 1) % q{ebq}cap[lanes]")
                w(f"q{ebq}c[lanes] -= 1")
                w("_t = _v != 0" if sense else "_t = _v == 0")
                self._emit_ap_retire(
                    w, f"np.where(_t, {target}, {p + 1})"
                )
            elif kind == D.A_BR:
                _, operand, sense, target = entry
                w(f"_v = {self._src(operand, 'ap_regs')}")
                w("_t = _v == 0" if sense else "_t = _v != 0")
                self._emit_ap_retire(
                    w, f"np.where(_t, {target}, {p + 1})"
                )
            elif kind == D.A_STREAM:
                # cold: at most once per stream per lane; the engine
                # method mutates the same arrays the locals alias
                w(f"engine._ap_stream(lanes, _AP_ENTRY_{p})")
            elif kind == D.A_JMP:
                self._emit_ap_retire(w, str(entry[1]))
            elif kind == D.A_HALT:
                w("ap_halt[lanes] = True")
                w("ap_live -= lanes.size")
                self._emit_ap_retire(w, None)
            else:  # A_NOP
                self._emit_ap_retire(w, None)
        w()

    def _emit_ep_block(self, w: _Writer, p: int, entry) -> None:
        kind = entry[0]
        nonlocals = ["ep_live"] if kind == D.E_HALT else []
        with w.block(f"def _ep{p}(lanes):"):
            if nonlocals:
                w(f"nonlocal {', '.join(nonlocals)}")
            if kind == D.E_ALU:
                _, op, srcs, dest_q, dest_reg = entry
                qsrcs = []
                seen = set()
                for tag, payload in srcs:
                    if tag == D.Q and payload not in seen:
                        seen.add(payload)
                        qsrcs.append(payload)
                if qsrcs:
                    terms = [
                        f"({self._ready_expr(q)})" for q in qsrcs
                    ]
                    w(f"_ok = {' & '.join(terms)}")
                    self._emit_gate(w, "_ok", "ep", D.C_LQ_EMPTY)
                if dest_q is not None:
                    w(f"_free = q{dest_q}c[lanes] "
                      f"< q{dest_q}cap[lanes]")
                    self._emit_gate(w, "_free", "ep", D.C_Q_FULL)
                temps = []
                for i, (tag, payload) in enumerate(srcs):
                    if tag == D.Q:
                        self._emit_pop(w, payload, f"_a{i}", f"_h{i}")
                        temps.append(f"_a{i}")
                    elif tag == D.R:
                        w(f"_a{i} = ep_regs[lanes, {payload}]")
                        temps.append(f"_a{i}")
                    else:
                        temps.append(repr(float(payload)))
                w(f"_r = {_alu_np_expr(op, temps)}")
                if dest_q is not None:
                    self._emit_put(w, dest_q, "_r", "now[lanes]")
                else:
                    w(f"ep_regs[lanes, {dest_reg}] = _r")
                self._emit_ep_retire(w, None)
            elif kind == D.E_BR:
                _, operand, sense, target = entry
                w(f"_v = {self._src(operand, 'ep_regs')}")
                w("_t = _v == 0" if sense else "_t = _v != 0")
                self._emit_ep_retire(
                    w, f"np.where(_t, {target}, {p + 1})"
                )
            elif kind == D.E_DECBNZ:
                _, reg, target = entry
                w(f"ep_regs[lanes, {reg}] -= 1")
                w(f"_t = ep_regs[lanes, {reg}] != 0")
                self._emit_ep_retire(
                    w, f"np.where(_t, {target}, {p + 1})"
                )
            elif kind == D.E_JMP:
                self._emit_ep_retire(w, str(entry[1]))
            elif kind == D.E_HALT:
                w("ep_halt[lanes] = True")
                w("ep_live -= lanes.size")
                self._emit_ep_retire(w, None)
            else:  # E_NOP
                self._emit_ep_retire(w, None)
        w()

    # -- components ------------------------------------------------------

    def _emit_completions(self, w: _Writer) -> None:
        with w.block("if pend_live:"):
            with w.block("while True:"):
                w("_cand = ix[pend_count[ix] > 0]")
                with w.block("if _cand.size == 0:"):
                    w("break")
                w("_heads = pend_t[_cand, pend_head[_cand]]")
                w("_mat = _heads <= now[_cand]")
                with w.block("if not _mat.any():"):
                    w("break")
                w("_ml = _cand[_mat]")
                w("pend_head[_ml] = (pend_head[_ml] + 1) % P")
                w("pend_count[_ml] -= 1")
                w("delivered[_ml] = True")
                w("pend_live -= _ml.size")

    def _emit_store_unit(self, w: _Writer) -> None:
        saq = self.qlay.saq
        w(f"_m = q{saq}c[ix] > 0")
        with w.block("if _m.any():"):
            w("sl = ix[_m]")
            w(f"_hh = q{saq}h[sl]")
            w(f"_rdy = q{saq}f[sl, _hh] <= now[sl]")
            w("sl = sl[_rdy]")
            with w.block("if sl.size:"):
                w("_hh = _hh[_rdy]")
                w(f"addr = q{saq}v[sl, _hh].astype(np.int64)")
                dq = self.single_dq
                if dq is not None:
                    w(f"_rdy = ({self._ready_expr(dq, 'sl')})")
                else:
                    w(f"dq = {self.qlay.sdq(0)} + saq_dqi[sl, _hh]")
                    w("_rdy = (q_count[sl, dq] > 0) & ("
                      "q_fill[sl, dq, q_head[sl, dq]] <= now[sl])")
                w("sl = sl[_rdy]")
                w("addr = addr[_rdy]")
                if dq is None:
                    w("dq = dq[_rdy]")
                with w.block("if sl.size:"):
                    w("bank = addr % nbanks[sl]")
                    w("_ok = ~port_used[sl] "
                      "& (bank_free[sl, bank] <= now[sl])")
                    w("sl = sl[_ok]")
                    w("addr = addr[_ok]")
                    w("bank = bank[_ok]")
                    if dq is None:
                        w("dq = dq[_ok]")
                    with w.block("if sl.size:"):
                        self._emit_check_addr(w, "addr")
                        w("port_used[sl] = True")
                        w("bank_free[sl, bank] = now[sl] "
                          "+ bank_busy[sl]")
                        if dq is not None:
                            w(f"_h2 = q{dq}h[sl]")
                            w(f"mem[sl, addr] = q{dq}v[sl, _h2]")
                            w("s_writes[sl] += 1")
                            w(f"_hs = q{saq}h[sl]")
                            w(f"q{saq}h[sl] = (_hs + 1) "
                              f"% q{saq}cap[sl]")
                            w(f"q{saq}c[sl] -= 1")
                            w(f"q{dq}h[sl] = (_h2 + 1) "
                              f"% q{dq}cap[sl]")
                            w(f"q{dq}c[sl] -= 1")
                        else:
                            w("_h2 = q_head[sl, dq]")
                            w("mem[sl, addr] = q_vals[sl, dq, _h2]")
                            w("s_writes[sl] += 1")
                            w(f"_hs = q{saq}h[sl]")
                            w(f"q{saq}h[sl] = (_hs + 1) "
                              f"% q{saq}cap[sl]")
                            w(f"q{saq}c[sl] -= 1")
                            w("q_head[sl, dq] = (_h2 + 1) "
                              "% q_cap[sl, dq]")
                            w("q_count[sl, dq] -= 1")
                        w("progress[sl] = True")

    def _emit_engine_tick(self, w: _Writer) -> None:
        """Stream-engine tick: pick and issue one request per lane.

        ``StreamEngine.tick`` walks the descriptors round-robin, but
        with ``issue_per_cycle == 1`` the walk always stops at its
        first success, its attempt budget covers every live slot, and a
        failed attempt mutates nothing a job result can observe.  So
        the walk's outcome is "the first eligible slot in circular
        order from ``rr``", computed in one vectorized pass over the
        slot axis, with ``rr' = (rr + fails_before_success [+ 1 if
        unfinished]) % n``.  One observable difference is tolerated: a
        non-integral index-queue head raises when its address is
        computed, which the scalar walk may postpone by a cycle —
        timing of the raise only, and only for programs that fault.
        """
        producing = self.stream_kinds & {D.S_LOAD, D.S_GATHER}
        consuming = self.stream_kinds & {D.S_STORE, D.S_SCATTER}
        indexed = self.stream_kinds & {D.S_GATHER, D.S_SCATTER}

        def _kind_mask(kinds: set[int]) -> str:
            terms = [f"(skind == {k})" for k in sorted(kinds)]
            return " | ".join(terms) if len(terms) > 1 else terms[0]

        w("el = ix[n_live[ix] > 0]")
        with w.block("if el.size:"):
            # pre-filter: a lane whose port is taken or whose banks are
            # all busy cannot issue; its whole tick would be a no-op
            # (failed attempts only normalize rr, and rr is read modulo
            # n everywhere, so skipping is unobservable)
            w("_em = ~port_used[el]")
            w("_em &= bank_free[el].min(axis=1) <= now[el]")
            w("el = el[_em]")
        with w.block("if el.size:"):
            w("n = n_live[el]")
            w("S = int(n.max())")
            w("k = el.size")
            w("_nw = now[el]")
            w("_ar = _ARS[:S]")
            w("valid = _ar[None, :] < n[:, None]")
            if producing and consuming:
                w("skind = st_kind[el, :S]")
            w("base = st_base[el, :S]")
            w("addr = base + st_issued[el, :S] * st_stride[el, :S]")
            if not consuming:
                w("produces = valid")
            elif not producing:
                pass  # produces is statically all-False
            else:
                mask = _kind_mask(producing)
                paren = f"({mask})" if len(producing) > 1 else mask
                w(f"produces = {paren} & valid")
            if indexed == self.stream_kinds and indexed:
                w("indexed = valid")
            elif indexed:
                mask = _kind_mask(indexed)
                paren = f"({mask})" if len(indexed) > 1 else mask
                w(f"indexed = {paren} & valid")
            if indexed:
                w("ok = valid.copy()")
                with w.block("if indexed.any():"):
                    w("r, c = np.nonzero(indexed)")
                    w("il = el[r]")
                    w("iq = st_iq[il, c]")
                    w("_ih = q_head[il, iq]")
                    w("_ird = (q_count[il, iq] > 0) & ("
                      "q_fill[il, iq, _ih] <= now[il])")
                    w("ok[r[~_ird], c[~_ird]] = False")
                    w("rl, cl = r[_ird], c[_ird]")
                    with w.block("if rl.size:"):
                        w("_iqr = iq[_ird]")
                        w("_pl = el[rl]")
                        w("_a = _addr(q_vals[_pl, _iqr, "
                          "q_head[_pl, _iqr]])")
                        w("addr[rl, cl] = base[rl, cl] + _a")
                w("bank = addr % nbanks[el][:, None]")
                w("ok &= bank_free[el[:, None], bank] "
                  "<= _nw[:, None]")
            else:
                # bank availability first: it needs no queue gathers
                # and shrinks the queue probes below (ok-masking the
                # probes is commutative -- each only clears ok bits)
                w("bank = addr % nbanks[el][:, None]")
                w("ok = (bank_free[el[:, None], bank] "
                  "<= _nw[:, None]) & valid")
            # the lane pre-filter removed every port_used lane, so no
            # explicit port mask is needed here
            if producing:
                self._emit_produce_full(w)
            if consuming:
                stores = (
                    "valid" if not producing else "valid & ~produces"
                )
                w(f"r, c = np.nonzero(({stores}) & ok)")
                with w.block("if r.size:"):
                    w("dl = el[r]")
                    w("dqs = st_dq[dl, c]")
                    w("_dh = q_head[dl, dqs]")
                    w("_drd = (q_count[dl, dqs] > 0) & ("
                      "q_fill[dl, dqs, _dh] <= now[dl])")
                    w("ok[r[~_drd], c[~_drd]] = False")
            w("pos = (_ar[None, :] - (rr[el] % n)[:, None]) "
              "% n[:, None]")
            w("pos = np.where(ok, pos, _BIG)")
            w("best = pos.argmin(axis=1)")
            w("fails = pos[_ARL[:k], best]")
            w("chosen = fails < _BIG")
            # lanes that issue nothing keep their rr unnormalized; rr
            # is read modulo n everywhere, so this is unobservable
            with w.block("if chosen.any():"):
                w("rows = np.flatnonzero(chosen)")
                w("gl = el[rows]")
                w("gi = best[rows]")
                w("gaddr = addr[rows, gi]")
                w("port_used[gl] = True")
                w("bank_free[gl, bank[rows, gi]] = now[gl] "
                  "+ bank_busy[gl]")
                if producing and consuming:
                    w("gprod = produces[rows, gi]")
                    with w.block("if gprod.any():"):
                        self._emit_stream_fill(
                            w, "gl[gprod]", "gaddr[gprod]",
                            "gi[gprod]",
                        )
                    w("gst = ~gprod")
                    with w.block("if gst.any():"):
                        self._emit_stream_store(
                            w, "gl[gst]", "gaddr[gst]", "gi[gst]"
                        )
                elif producing:
                    self._emit_stream_fill(w, "gl", "gaddr", "gi")
                else:
                    self._emit_stream_store(w, "gl", "gaddr", "gi")
                if indexed == self.stream_kinds and indexed:
                    w("ql = gl")
                    w("iqs = st_iq[ql, gi]")
                    w("_qh = q_head[ql, iqs]")
                    w("q_head[ql, iqs] = (_qh + 1) % q_cap[ql, iqs]")
                    w("q_count[ql, iqs] -= 1")
                elif indexed:
                    w("gind = indexed[rows, gi]")
                    with w.block("if gind.any():"):
                        w("ql = gl[gind]")
                        w("iqs = st_iq[ql, gi[gind]]")
                        w("_qh = q_head[ql, iqs]")
                        w("q_head[ql, iqs] = (_qh + 1) "
                          "% q_cap[ql, iqs]")
                        w("q_count[ql, iqs] -= 1")
                w("_niss = st_issued[gl, gi] + 1")
                w("st_issued[gl, gi] = _niss")
                w("sdone = _niss >= st_count[gl, gi]")
                w("adv = fails[rows] + ~sdone")
                w("rr[gl] = (rr[gl] + adv) % n[rows]")
                with w.block("if sdone.any():"):
                    # vectorized _remove_stream: lanes are unique
                    # (one issue per lane per tick), so plain fancy
                    # scatter updates are safe; slots at or past the
                    # new n_live are dead and never read
                    w("rl = gl[sdone]")
                    w("rs = gi[sdone]")
                    w("_rv = st_tq[rl, rs]")
                    w("_rm = _rv >= 0")
                    w("produced_mask[rl[_rm]] &= ~(_I64 << _rv[_rm])")
                    w("_rv = st_dq[rl, rs]")
                    w("_rm = _rv >= 0")
                    w("consumed_mask[rl[_rm]] &= ~(_I64 << _rv[_rm])")
                    w("_rv = st_iq[rl, rs]")
                    w("_rm = _rv >= 0")
                    w("consumed_mask[rl[_rm]] &= ~(_I64 << _rv[_rm])")
                    w("_rsrc = np.minimum(_ARS[None, :] + "
                      "(_ARS[None, :] >= rs[:, None]), MS - 1)")
                    w("_rdst = rl[:, None]")
                    for f in (
                        "st_kind", "st_base", "st_stride", "st_count",
                        "st_issued", "st_tq", "st_dq", "st_iq",
                    ):
                        w(f"{f}[_rdst, _ARS] = {f}[_rdst, _rsrc]")
                    w("n_live[rl] -= 1")

    def _emit_produce_full(self, w: _Writer) -> None:
        w("r, c = np.nonzero(produces & ok)")
        with w.block("if r.size:"):
            w("pl = el[r]")
            w("tq = st_tq[pl, c]")
            w("full = q_count[pl, tq] >= q_cap[pl, tq]")
            w("ok[r[full], c[full]] = False")

    def _emit_stream_fill(
        self, w: _Writer, lanes: str, addr: str, gi: str
    ) -> None:
        """Inline ``_schedule_fill`` with a dynamic target queue."""
        w(f"pl = {lanes}")
        w(f"pa = {addr}")
        w(f"tqs = st_tq[pl, {gi}]")
        self._emit_check_addr(w, "pa")
        w("_fill = now[pl] + latency[pl]")
        w("_s = (q_head[pl, tqs] + q_count[pl, tqs]) "
          "% q_cap[pl, tqs]")
        w("q_vals[pl, tqs, _s] = mem[pl, pa]")
        w("q_fill[pl, tqs, _s] = _fill")
        w("q_count[pl, tqs] += 1")
        with w.block("if trk:"):
            w("q_peak[pl, tqs] = np.maximum("
              "q_peak[pl, tqs], q_count[pl, tqs])")
        w("_ps = (pend_head[pl] + pend_count[pl]) % P")
        w("pend_t[pl, _ps] = _fill")
        w("pend_count[pl] += 1")
        w("pend_live += pl.size")
        w("s_reads[pl] += 1")
        w("progress[pl] = True")

    def _emit_stream_store(
        self, w: _Writer, lanes: str, addr: str, gi: str
    ) -> None:
        w(f"slv = {lanes}")
        w(f"sa = {addr}")
        self._emit_check_addr(w, "sa")
        w(f"dqs = st_dq[slv, {gi}]")
        w("_dh = q_head[slv, dqs]")
        w("mem[slv, sa] = q_vals[slv, dqs, _dh]")
        w("s_writes[slv] += 1")
        w("q_head[slv, dqs] = (_dh + 1) % q_cap[slv, dqs]")
        w("q_count[slv, dqs] -= 1")
        w("progress[slv] = True")

    def _emit_dispatch(self, w: _Writer, side: str) -> None:
        halt = f"{side}_halt"
        pc = f"{side}_pc"
        plen = len(self.ap) if side == "ap" else len(self.ep)
        err = ("AP" if side == "ap" else "EP") + \
            " ran off the end of program"
        with w.block(f"if {side}_live:"):
            w(f"lanes = ix[~{halt}[ix]]")
            if side == "ep":
                # parked shortcut: a lane that stalled on its last EP
                # attempt re-stalls with the identical cause unless a
                # queue-changing event happened this cycle -- every
                # such event (completion delivery, store-unit/engine
                # pop or push, AP fill) sets delivered/progress before
                # EP steps, so the full probe can be replayed as a
                # single stall-counter increment
                guard = (
                    "~(delivered[lanes] | progress[lanes])"
                    if self.has_pend
                    else "~progress[lanes]"
                )
                with w.block("if lanes.size:"):
                    w("_sc = ep_stalled[lanes]")
                    w(f"_pk = (_sc != -1) & {guard}")
                    with w.block("if _pk.any():"):
                        w("_pkl = lanes[_pk]")
                        w("s_epst[_pkl, _sc[_pk]] += 1")
                        w("lanes = lanes[~_pk]")
            with w.block("if lanes.size:"):
                w(f"pcs = {pc}[lanes]")
                w(f"_cnt = np.bincount(pcs, minlength={plen})")
                w("_nz = np.flatnonzero(_cnt)")
                with w.block("if _nz.size == 1:"):
                    w("p = _nz[0]")
                    with w.block(f"if p >= {plen}:"):
                        w(f"raise SimulationError({err!r})")
                    w(f"_b_{side}[p](lanes)")
                with w.block("else:"):
                    with w.block("for p in _nz:"):
                        with w.block(f"if p >= {plen}:"):
                            w(f"raise SimulationError({err!r})")
                        w(f"_b_{side}[p](lanes[pcs == p])")

    # -- whole-function assembly -----------------------------------------

    def generate(self) -> str:
        w = _Writer()
        w.w("def __batch_lane_loop__(engine, max_cycles, "
            "deadlock_window):")
        w.depth = 1
        self._emit_preamble(w)
        for p, entry in enumerate(self.ap):
            self._emit_ap_block(w, p, entry)
        for p, entry in enumerate(self.ep):
            self._emit_ep_block(w, p, entry)
        w.w(f"_b_ap = [{', '.join(f'_ap{p}' for p in range(len(self.ap)))}]")
        w.w(f"_b_ep = [{', '.join(f'_ep{p}' for p in range(len(self.ep)))}]")
        self._emit_loop(w)
        return "\n".join(w.lines) + "\n"

    def _emit_preamble(self, w: _Writer) -> None:
        e = [
            "st = engine.stats",
            "now = engine.now",
            "active = engine.active",
            "cycles = engine.cycles",
            "last_progress = engine.last_progress",
            "ap_pc = engine.ap_pc",
            "ap_halt = engine.ap_halt",
            "ap_regs = engine.ap_regs",
            "ap_stalled = engine.ap_stalled",
            "ep_pc = engine.ep_pc",
            "ep_halt = engine.ep_halt",
            "ep_regs = engine.ep_regs",
            "ep_stalled = engine.ep_stalled",
            "progress = engine._progress",
            "s_apinstr = st.ap_instructions",
            "s_epinstr = st.ep_instructions",
            "s_apst = st.ap_stalls",
            "s_apfirst = st.ap_first",
            "s_epst = st.ep_stalls",
            "s_epfirst = st.ep_first",
            "s_lod = st.lod_events",
        ]
        if self.uses_memory:
            e += [
                "mem = engine.mem",
                "msize = engine.msize",
                "bank_free = engine.bank_free",
                "port_used = engine.port_used",
                "latency = engine.latency",
                "bank_busy = engine.bank_busy",
                "nbanks = engine.nbanks",
                "s_reads = st.memory_reads",
                "s_writes = st.memory_writes",
            ]
        if self.has_pend:
            e += [
                "pend_t = engine.pend_t",
                "pend_head = engine.pend_head",
                "pend_count = engine.pend_count",
                "P = engine.P",
                "delivered = engine._delivered",
                "pend_live = int(pend_count.sum())",
            ]
        if self.has_staddr:
            e.append("saq_dqi = engine.saq_dqi")
        if self.single_dq is None and (
            self.has_staddr
            or self.stream_kinds & {D.S_STORE, D.S_SCATTER}
            or self.stream_kinds & {D.S_GATHER}
        ) or self.has_stream:
            # dynamic queue-id sites (stream engine, multi-dq store
            # unit) index the full planes
            e += [
                "q_vals = engine.q_vals",
                "q_fill = engine.q_fill",
                "q_head = engine.q_head",
                "q_count = engine.q_count",
                "q_cap = engine.q_cap",
            ]
        if self.has_stream:
            e += [
                "st_kind = engine.st_kind",
                "st_base = engine.st_base",
                "st_stride = engine.st_stride",
                "st_count = engine.st_count",
                "st_issued = engine.st_issued",
                "st_tq = engine.st_tq",
                "st_dq = engine.st_dq",
                "st_iq = engine.st_iq",
                "n_live = engine.n_live",
                "rr = engine.rr",
                "produced_mask = engine.produced_mask",
                "consumed_mask = engine.consumed_mask",
                "MS = engine.max_streams",
                "_ARS = np.arange(engine.max_streams, dtype=np.int64)",
                "_ARL = np.arange(active.shape[0])",
                "_I64 = np.int64(1)",
            ]
        if self.filled_loads:
            e.append("s_osum = st.occupancy_sum")
            e.append("s_omax = st.occupancy_max")
        e.append("trk = engine.track_saturation")
        e.append("q_peak = engine.q_peak")
        e.append("ap_live = int((~ap_halt).sum())")
        e.append("ep_live = int((~ep_halt).sum())")
        for line in e:
            w.w(line)
        for q in sorted(self.views):
            w.w(f"q{q}c = engine.q_count[:, {q}]")
            w.w(f"q{q}h = engine.q_head[:, {q}]")
            w.w(f"q{q}v = engine.q_vals[:, {q}]")
            w.w(f"q{q}f = engine.q_fill[:, {q}]")
            w.w(f"q{q}cap = engine.q_cap[:, {q}]")
        for p, entry in enumerate(self.ap):
            if entry[0] == D.A_STREAM:
                w.w(f"_AP_ENTRY_{p} = engine.ap_prog[{p}]")
        w.w()

    def _emit_loop(self, w: _Writer) -> None:
        occ = bool(self.filled_loads)
        # ``ix`` (the active lane set) is carried across iterations:
        # next round's set is this round's survivors, so the loop scans
        # ``active`` only once.  Flag resets are whole-array fills —
        # frozen lanes never read them, and a memset beats fancy
        # indexing at any lane count.
        w("ix = np.flatnonzero(active)")
        with w.block("while ix.size:"):
            if self.has_pend:
                w("delivered.fill(False)")
            w("progress.fill(False)")
            if self.uses_memory:
                w("port_used.fill(False)")
            if self.has_pend:
                self._emit_completions(w)
            if self.has_staddr:
                self._emit_store_unit(w)
            if self.has_stream:
                self._emit_engine_tick(w)
            self._emit_dispatch(w, "ap")
            self._emit_dispatch(w, "ep")
            if occ:
                terms = [
                    f"q{q}c[ix]" for q in sorted(self.filled_loads)
                ]
                w(f"outst = {' + '.join(terms)}")
                if len(self.filled_loads) == 1:
                    # a view gather already copies; keep as-is
                    pass
                w("s_osum[ix] += outst")
                w("_big = outst > s_omax[ix]")
                with w.block("if _big.any():"):
                    w("s_omax[ix[_big]] = outst[_big]")
            w("now[ix] += 1")
            w("_pr = progress[ix]")
            w("_pl2 = ix[_pr]")
            w("last_progress[_pl2] = now[_pl2]")
            done = ["ap_halt[ix]", "ep_halt[ix]"]
            if self.has_stream:
                done.append("(n_live[ix] == 0)")
            if self.has_staddr:
                done.append(f"(q{self.qlay.saq}c[ix] == 0)")
            if self.has_pend:
                done.append("(pend_count[ix] == 0)")
            w("live = ix")
            if occ:
                w("_ost = outst")
            # a lane is done only once both processors halted, so the
            # freeze check can wait until the halt counters show an
            # active lane past each halt
            with w.block("if ix.size > ap_live and ix.size > ep_live:"):
                w(f"done = {' & '.join(done)}")
                w("dl = ix[done]")
                with w.block("if dl.size:"):
                    w("cycles[dl] = now[dl]")
                    w("active[dl] = False")
                    w("live = ix[~done]")
                    if occ:
                        w("_ost = outst[~done]")
            with w.block("if live.size:"):
                with w.block("if np.any(now[live] >= max_cycles):"):
                    w("raise SimulationError("
                      "f\"exceeded cycle budget {max_cycles}\")")
                w("_pg = _pr if live is ix else progress[live]")
                if self.has_pend:
                    w("_npd = ~_pg & ~delivered[live]")
                else:
                    w("_npd = ~_pg")
                w("idle = live[_npd]")
                with w.block("if idle.size:"):
                    w("tprev = now[idle] - 1")
                    if self.has_pend:
                        w("pend = np.where(pend_count[idle] > 0, "
                          "pend_t[idle, pend_head[idle]], _BIG)")
                    if self.uses_memory:
                        w("bf = bank_free[idle]")
                        w("banks = np.where(bf > tprev[:, None], bf, "
                          "_BIG).min(axis=1)")
                    w("horizon = np.minimum(last_progress[idle] "
                      "+ deadlock_window + 1, max_cycles)")
                    target = "horizon"
                    if self.uses_memory:
                        target = f"np.minimum(banks, {target})"
                    if self.has_pend:
                        target = f"np.minimum(pend, {target})"
                    w(f"target = {target}")
                    w("skipped = target - now[idle]")
                    w("hop = skipped > 0")
                    w("jl = idle[hop]")
                    with w.block("if jl.size:"):
                        w("sk = skipped[hop]")
                        w("ap_c = ap_stalled[jl]")
                        w("apl = ap_c != -1")
                        w("s_apst[jl[apl], ap_c[apl]] += sk[apl]")
                        w("ep_c = ep_stalled[jl]")
                        w("epl = ep_c != -1")
                        w("s_epst[jl[epl], ep_c[epl]] += sk[epl]")
                        if occ:
                            w("s_osum[jl] += _ost[_npd][hop] * sk")
                        w("now[jl] += sk")
                w("overdue = live[now[live] - last_progress[live] "
                  "> deadlock_window]")
                with w.block("if overdue.size:"):
                    w("engine._deadlock_error(int(overdue[0]), "
                      "deadlock_window)")
            w("ix = live")
