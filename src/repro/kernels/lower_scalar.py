"""Kernel-IR → scalar-baseline code generator.

Produces a single unified program for :class:`repro.baseline.ScalarMachine`
using the conventional compilation techniques of the era:

* strength-reduced address arithmetic — one pointer register per distinct
  array reference, bumped by the reference's stride each iteration instead
  of recomputed from the loop index;
* count-down loops closed with a single ``decbnz``;
* per-statement common-subexpression elimination of repeated array reads;
* reductions held in a register across the whole loop nest.

The point of being this careful with the baseline is fairness: the SMA
speedups reported by the benchmarks are measured against a competently
compiled scalar program, not a strawman.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Union

from ..errors import LoweringError
from ..isa import Imm, Label, Op, Program, ProgramBuilder, Reg
from .ir import (
    Affine,
    Assign,
    BinOp,
    Computed,
    Const,
    Expr,
    Indirect,
    Kernel,
    Loop,
    Reduce,
    Ref,
    Select,
    UnOp,
)
from .layout import Layout, layout_arrays
from .regalloc import RegAlloc

_BINOP_TO_OP = {
    "+": Op.ADD,
    "-": Op.SUB,
    "*": Op.MUL,
    "/": Op.DIV,
    "min": Op.MIN,
    "max": Op.MAX,
    "mod": Op.MOD,
}
_UNOP_TO_OP = {
    "abs": Op.ABS,
    "neg": Op.NEG,
    "sqrt": Op.SQRT,
    "floor": Op.FLOOR,
}
_CMP_TO_OP = {
    "<": Op.CMPLT,
    "<=": Op.CMPLE,
    "==": Op.CMPEQ,
    "!=": Op.CMPNE,
}


@dataclass(frozen=True)
class LoweredScalar:
    """A compiled kernel for the scalar machine."""

    kernel: Kernel
    program: Program
    layout: Layout


def expr_top_refs(expr: Expr) -> Iterator[Ref]:
    """Direct array reads of an expression tree — unlike
    :func:`repro.kernels.ir.expr_refs` this does *not* descend into the
    subscript machinery of indirect/computed refs (those reads belong to
    the evaluation of the outer ref itself)."""
    if isinstance(expr, Ref):
        yield expr
    elif isinstance(expr, BinOp):
        yield from expr_top_refs(expr.lhs)
        yield from expr_top_refs(expr.rhs)
    elif isinstance(expr, UnOp):
        yield from expr_top_refs(expr.operand)
    elif isinstance(expr, Select):
        yield from expr_top_refs(expr.cond.lhs)
        yield from expr_top_refs(expr.cond.rhs)
        yield from expr_top_refs(expr.iftrue)
        yield from expr_top_refs(expr.iffalse)


def lower_scalar(kernel: Kernel, base: int = 16) -> LoweredScalar:
    """Compile ``kernel`` for the scalar baseline."""
    gen = _ScalarGen(kernel, base)
    return LoweredScalar(kernel, gen.generate(), gen.layout)


# ---------------------------------------------------------------------------


class _ScalarGen:
    def __init__(self, kernel: Kernel, base: int):
        self.kernel = kernel
        self.layout = layout_arrays(kernel, base)
        self.b = ProgramBuilder(f"{kernel.name}.scalar")
        self.regs = RegAlloc(f"{kernel.name}.scalar")
        # id(Reduce) -> accumulator register
        self._acc: dict[int, Reg] = {}
        # active pointer registers: Ref -> Reg (affine refs of current loop)
        self._ptrs: dict[Ref, Reg] = {}
        # per-statement CSE map: Ref -> value register
        self._cse: dict[Ref, Reg] = {}
        # loop var -> register holding its current value
        self._loop_vars: dict[str, Reg] = {}

    # -- entry point -----------------------------------------------------

    def generate(self) -> Program:
        for nest in self.kernel.body:
            assert isinstance(nest, Loop)
            self._gen_loop(nest)
        self.b.op(Op.HALT)
        return self.b.finalize()

    # -- loops ------------------------------------------------------------

    def _gen_loop(self, loop: Loop) -> None:
        if any(isinstance(s, Loop) for s in loop.body):
            var = self.regs.alloc()
            counter = self.regs.alloc()
            self._loop_vars[loop.var] = var
            self.b.op(Op.MOV, var, Imm(loop.start))
            self.b.op(Op.MOV, counter, Imm(loop.count))
            top = self.b.new_label(f"{loop.var}_outer")
            self.b.label(top)
            for stmt in loop.body:
                assert isinstance(stmt, Loop)
                self._gen_loop(stmt)
            self.b.op(Op.ADD, var, var, Imm(1))
            self.b.op(Op.DECBNZ, counter, Label(top))
            del self._loop_vars[loop.var]
            self.regs.free(counter)
            self.regs.free(var)
        else:
            self._gen_innermost(loop)

    def _gen_innermost(self, loop: Loop) -> None:
        # a Reduce accumulates over this loop: init its register here,
        # store it (to an address that may use outer loop vars) at exit
        direct_reduces = [s for s in loop.body if isinstance(s, Reduce)]
        for red in direct_reduces:
            acc = self.regs.alloc()
            self._acc[id(red)] = acc
            self.b.op(Op.MOV, acc, Imm(float(red.init)))
        ptr_refs = self._collect_affine_refs(loop)
        saved_ptrs = self._ptrs
        self._ptrs = {}
        for ref in ptr_refs:
            self._ptrs[ref] = self._init_pointer(ref, loop)
        counter = self.regs.alloc()
        self.b.op(Op.MOV, counter, Imm(loop.count))
        top = self.b.new_label(f"{loop.var}_loop")
        self.b.label(top)
        for stmt in loop.body:
            self._gen_stmt(stmt, loop)
        for ref, ptr in self._ptrs.items():
            index = ref.index
            assert isinstance(index, Affine)
            stride = index.coeff(loop.var)
            if stride:
                self.b.op(Op.ADD, ptr, ptr, Imm(stride))
        self.b.op(Op.DECBNZ, counter, Label(top))
        self.regs.free(counter)
        for ptr in self._ptrs.values():
            self.regs.free(ptr)
        self._ptrs = saved_ptrs
        for red in direct_reduces:
            acc = self._acc.pop(id(red))
            dest_ptr = self._init_pointer(red.dest, loop)
            self.b.op(Op.STORE, None, acc, dest_ptr, Imm(0))
            self.regs.free(dest_ptr)
            self.regs.free(acc)

    def _collect_affine_refs(self, loop: Loop) -> list[Ref]:
        """Distinct affine-indexed refs touched in the loop body (reads,
        indirect/computed subscript reads, and affine write targets)."""
        seen: dict[Ref, None] = {}

        def note(ref: Ref) -> None:
            if isinstance(ref.index, Affine):
                seen.setdefault(ref)
            elif isinstance(ref.index, Indirect):
                seen.setdefault(ref.index.ref)
                # subscript refs of the indirect target handled recursively
            elif isinstance(ref.index, Computed):
                for inner in expr_top_refs(ref.index.expr):
                    note(inner)

        for stmt in loop.body:
            if isinstance(stmt, Assign):
                note(stmt.dest)
                for ref in expr_top_refs(stmt.expr):
                    note(ref)
            elif isinstance(stmt, Reduce):
                for ref in expr_top_refs(stmt.expr):
                    note(ref)
            else:  # pragma: no cover - validated earlier
                raise LoweringError("nested loop in innermost body")
        return list(seen)

    def _init_pointer(self, ref: Ref, loop: Loop) -> Reg:
        """Materialize ``&ref`` at the first iteration of ``loop``."""
        index = ref.index
        assert isinstance(index, Affine)
        const_part = (
            self.layout.base(ref.array)
            + index.offset
            + index.coeff(loop.var) * loop.start
        )
        ptr = self.regs.alloc()
        self.b.op(Op.MOV, ptr, Imm(const_part))
        for var, coeff in index.coeffs:
            if var == loop.var or coeff == 0:
                continue
            if var not in self._loop_vars:
                raise LoweringError(f"pointer uses unbound loop var {var!r}")
            tmp = self.regs.alloc()
            self.b.op(Op.MUL, tmp, self._loop_vars[var], Imm(coeff))
            self.b.op(Op.ADD, ptr, ptr, tmp)
            self.regs.free(tmp)
        return ptr

    # -- statements --------------------------------------------------------

    def _gen_stmt(self, stmt: Union[Assign, Reduce], loop: Loop) -> None:
        # per-statement CSE: load refs used more than once exactly once
        if isinstance(stmt, Assign):
            reads = Counter(expr_top_refs(stmt.expr))
        else:
            reads = Counter(expr_top_refs(stmt.expr))
        self._cse = {}
        for ref, uses in reads.items():
            if uses > 1:
                self._cse[ref] = self._load_ref(ref)
        if isinstance(stmt, Assign):
            value = self._eval(stmt.expr)
            self._store(stmt.dest, value)
            self.regs.free(value)
        else:
            acc = self._acc[id(stmt)]
            value = self._eval(stmt.expr)
            self.b.op(_BINOP_TO_OP[stmt.op], acc, acc, value)
            self.regs.free(value)
        for reg in self._cse.values():
            self.regs.free(reg)
        self._cse = {}

    def _store(self, dest: Ref, value: Reg) -> None:
        if isinstance(dest.index, Affine):
            self.b.op(Op.STORE, None, value, self._ptrs[dest], Imm(0))
            return
        if isinstance(dest.index, Indirect):
            idx = self._load_ref(dest.index.ref)
            self.b.op(
                Op.ADD, idx, idx, Imm(self.layout.base(dest.array))
            )
            self.b.op(Op.STORE, None, value, idx, Imm(0))
            self.regs.free(idx)
            return
        raise LoweringError("computed store subscripts are unsupported")

    # -- expressions ---------------------------------------------------------

    def _load_ref(self, ref: Ref) -> Reg:
        """Load the value of ``ref`` into a fresh register."""
        index = ref.index
        if isinstance(index, Affine):
            reg = self.regs.alloc()
            self.b.op(Op.LOAD, reg, self._ptrs[ref], Imm(0))
            return reg
        if isinstance(index, Indirect):
            idx = self._load_ref(index.ref)
            self.b.op(Op.ADD, idx, idx, Imm(self.layout.base(ref.array)))
            self.b.op(Op.LOAD, idx, idx, Imm(0))
            return idx
        assert isinstance(index, Computed)
        idx = self._eval(index.expr)
        self.b.op(Op.ADD, idx, idx, Imm(self.layout.base(ref.array)))
        self.b.op(Op.LOAD, idx, idx, Imm(0))
        return idx

    def _eval(self, expr: Expr) -> Reg:
        """Evaluate ``expr`` into a fresh register (caller frees it)."""
        if isinstance(expr, Const):
            reg = self.regs.alloc()
            self.b.op(Op.MOV, reg, Imm(float(expr.value)))
            return reg
        if isinstance(expr, Ref):
            if expr in self._cse:
                reg = self.regs.alloc()
                self.b.op(Op.MOV, reg, self._cse[expr])
                return reg
            return self._load_ref(expr)
        if isinstance(expr, BinOp):
            lhs = self._eval(expr.lhs)
            rhs = self._eval(expr.rhs)
            self.b.op(_BINOP_TO_OP[expr.op], lhs, lhs, rhs)
            self.regs.free(rhs)
            return lhs
        if isinstance(expr, UnOp):
            operand = self._eval(expr.operand)
            self.b.op(_UNOP_TO_OP[expr.op], operand, operand)
            return operand
        if isinstance(expr, Select):
            cond_l = self._eval(expr.cond.lhs)
            cond_r = self._eval(expr.cond.rhs)
            self.b.op(_CMP_TO_OP[expr.cond.op], cond_l, cond_l, cond_r)
            self.regs.free(cond_r)
            t = self._eval(expr.iftrue)
            f = self._eval(expr.iffalse)
            self.b.op(Op.SEL, cond_l, cond_l, t, f)
            self.regs.free(t)
            self.regs.free(f)
            return cond_l
        raise LoweringError(f"cannot lower expression {expr!r}")


def _reductions(loop: Loop) -> list[Reduce]:
    found: list[Reduce] = []
    for s in loop.body:
        if isinstance(s, Reduce):
            found.append(s)
        elif isinstance(s, Loop):
            found.extend(_reductions(s))
    return found
