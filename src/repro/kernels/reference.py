"""Reference interpreter for the kernel IR (the golden model).

Executes a kernel directly over NumPy arrays, element by element, with the
*identical* scalar semantics the simulated machines use (same operator
table as :data:`repro.isa.ALU_FUNCS`, Python-float arithmetic) so that
differential tests can demand bit-exact equality between the reference and
both machine lowerings.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

from ..errors import KernelError
from .ir import (
    Affine,
    Assign,
    BinOp,
    Computed,
    Const,
    Indirect,
    Kernel,
    Loop,
    Reduce,
    Ref,
    Select,
    Stmt,
    UnOp,
)

if TYPE_CHECKING:
    import numpy as np

_BIN = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "min": min,
    "max": max,
    "mod": lambda a, b: a % b,
}
_UN = {
    "abs": abs,
    "neg": lambda a: -a,
    "sqrt": math.sqrt,
    "floor": lambda a: float(math.floor(a)),
}
_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _as_index(value: float, array: str, size: int) -> int:
    idx = int(value)
    if idx != value:
        raise KernelError(
            f"non-integral subscript {value!r} into array {array!r}"
        )
    if not 0 <= idx < size:
        raise KernelError(f"subscript {idx} out of range for {array!r}")
    return idx


class ReferenceInterpreter:
    """Evaluate a kernel over copies of the provided input arrays."""

    def __init__(self, kernel: Kernel, inputs: Mapping[str, np.ndarray]):
        import numpy as np

        self.kernel = kernel
        self.arrays: dict[str, np.ndarray] = {}
        for decl in kernel.arrays:
            if decl.name not in inputs:
                raise KernelError(
                    f"missing input array {decl.name!r} for {kernel.name!r}"
                )
            data = np.asarray(inputs[decl.name], dtype=np.float64)
            if data.shape != (decl.size,):
                raise KernelError(
                    f"array {decl.name!r} expected shape ({decl.size},), "
                    f"got {data.shape}"
                )
            self.arrays[decl.name] = data.copy()
        extra = set(inputs) - {a.name for a in kernel.arrays}
        if extra:
            raise KernelError(f"undeclared input arrays {sorted(extra)}")
        self._sizes = {decl.name: decl.size for decl in kernel.arrays}
        self._env: dict[str, int] = {}
        # accumulators keyed by Reduce statement identity
        self._acc: dict[int, float] = {}

    # -- evaluation --------------------------------------------------------

    def _index(self, ref: Ref) -> int:
        size = self._sizes[ref.array]
        index = ref.index
        if isinstance(index, Affine):
            value: float = index.evaluate(self._env)
        elif isinstance(index, Indirect):
            value = self._read(index.ref)
        elif isinstance(index, Computed):
            value = self._expr(index.expr)
        else:  # pragma: no cover
            raise KernelError(f"unknown index {index!r}")
        return _as_index(value, ref.array, size)

    def _read(self, ref: Ref) -> float:
        return float(self.arrays[ref.array][self._index(ref)])

    def _expr(self, expr) -> float:
        if isinstance(expr, Const):
            return float(expr.value)
        if isinstance(expr, Ref):
            return self._read(expr)
        if isinstance(expr, BinOp):
            return _BIN[expr.op](self._expr(expr.lhs), self._expr(expr.rhs))
        if isinstance(expr, UnOp):
            return _UN[expr.op](self._expr(expr.operand))
        if isinstance(expr, Select):
            cond = _CMP[expr.cond.op](
                self._expr(expr.cond.lhs), self._expr(expr.cond.rhs)
            )
            # both arms evaluated, mirroring the machines' SEL lowering
            t = self._expr(expr.iftrue)
            f = self._expr(expr.iffalse)
            return t if cond else f
        raise KernelError(f"unknown expression {expr!r}")

    # -- statement execution -----------------------------------------------

    def write(self, array: str, index: int, value: float) -> None:
        """Store ``value`` at ``array[index]``: the one array write of
        sequential semantics (an ``Assign``, and a reduction's store at
        its loop's exit).  A subclass overrides it to observe every
        write in program order (see :mod:`repro.verify`)."""
        self.arrays[array][index] = value

    def _run_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Loop):
            # a Reduce accumulates over its innermost enclosing loop:
            # reset direct-child accumulators at entry, store at exit
            direct = [s for s in stmt.body if isinstance(s, Reduce)]
            for red in direct:
                self._acc[id(red)] = float(red.init)
            for i in range(stmt.start, stmt.start + stmt.count):
                self._env[stmt.var] = i
                for s in stmt.body:
                    self._run_stmt(s)
            for red in direct:
                value = self._acc.pop(id(red))
                self.write(red.dest.array, self._index(red.dest), value)
            del self._env[stmt.var]
        elif isinstance(stmt, Assign):
            value = self._expr(stmt.expr)
            self.write(stmt.dest.array, self._index(stmt.dest), value)
        elif isinstance(stmt, Reduce):
            acc = self._acc[id(stmt)]
            self._acc[id(stmt)] = _BIN[stmt.op](acc, self._expr(stmt.expr))
        else:  # pragma: no cover
            raise KernelError(f"unknown statement {stmt!r}")

    def run(self) -> dict[str, np.ndarray]:
        """Execute the kernel; returns the final arrays (name -> values)."""
        for stmt in self.kernel.body:
            self._run_stmt(stmt)
        return self.arrays


def run_reference(
    kernel: Kernel, inputs: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """One-shot convenience wrapper around :class:`ReferenceInterpreter`."""
    return ReferenceInterpreter(kernel, inputs).run()
