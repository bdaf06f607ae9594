"""The workload suite: Livermore-loop-style kernels expressed in the IR.

Each kernel is a :class:`KernelSpec`: a builder that instantiates the IR
for a problem size ``n``, an input generator (seeded, reproducible), the
names of its output arrays, and a category used by the experiment harness
to pick representative workloads:

``streaming``    dense affine streams, no recurrence — SMA's best case
``stencil``      2-deep nests / multi-offset streams
``recurrence``   loop-carried at distance 1 (register-forwarded on SMA)
``reduction``    scalar accumulation
``gather``       index-array subscripts (structured gather)
``scatter``      index-array store targets (RMW; index arrays are
                 permutations — see the hazard caveat in ``lower_sma``)
``lod``          value-computed subscripts (loss of decoupling)
``select``       data-dependent select (no control-flow divergence)

The original 1983-era benchmark sources are not available; these kernels
are the standard reconstructions of the Lawrence Livermore Loops access
patterns (the LL number each one echoes is noted), plus a few extra
patterns (negative stride, strided banking) that the experiments sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..errors import KernelError

if TYPE_CHECKING:
    import numpy as np

    from .ir import (
        Affine,
        ArrayDecl,
        Assign,
        BinOp,
        Cmp,
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

#: the IR names the helpers and ``build`` functions below read as
#: module globals.  Planning reads only the registry's names and
#: categories, so the IR is imported, and these names bound, on first
#: use (:func:`_bind_ir`): by a helper, or by :meth:`KernelSpec.kernel`
#: before any ``build`` function runs
_IR_NAMES = (
    "Affine", "ArrayDecl", "Assign", "BinOp", "Cmp", "Computed", "Const",
    "Indirect", "Kernel", "Loop", "Reduce", "Ref", "Select", "UnOp",
)


def _bind_ir() -> None:
    """Import the IR and bind :data:`_IR_NAMES` here (idempotent)."""
    if "Kernel" not in globals():
        from . import ir

        globals().update({name: getattr(ir, name) for name in _IR_NAMES})


# -- tiny construction helpers ------------------------------------------


def at(array: str, off: int = 0, **coeffs: int) -> Ref:
    """``at("x", 1, i=1)`` == ``x[i+1]``; ``at("q")`` == ``q[0]``."""
    _bind_ir()
    return Ref(array, Affine.of(off, **{k: v for k, v in coeffs.items() if v}))


def gat(array: str, index_ref: Ref) -> Ref:
    """Gather: ``gat("e", at("ix", i=1))`` == ``e[ix[i]]``."""
    _bind_ir()
    return Ref(array, Indirect(index_ref))


def cat(array: str, index_expr: Expr) -> Ref:
    """Computed subscript: ``cat("tab", expr)`` == ``tab[expr]``."""
    _bind_ir()
    return Ref(array, Computed(index_expr))


def c(value: float) -> Const:
    _bind_ir()
    return Const(float(value))


def add(a: Expr, b: Expr) -> Expr:
    _bind_ir()
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    _bind_ir()
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    _bind_ir()
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    _bind_ir()
    return BinOp("/", a, b)


def fmod(a: Expr, b: Expr) -> Expr:
    _bind_ir()
    return BinOp("mod", a, b)


def floor(a: Expr) -> Expr:
    _bind_ir()
    return UnOp("floor", a)


def absval(a: Expr) -> Expr:
    _bind_ir()
    return UnOp("abs", a)


# -- spec ----------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """A workload: IR builder + reproducible inputs + metadata."""

    name: str
    description: str
    category: str
    build: Callable[[int], Kernel]
    make_inputs: Callable[[int, np.random.Generator], dict[str, np.ndarray]]
    output_arrays: tuple[str, ...]
    default_n: int = 256

    def kernel(self, n: int | None = None) -> Kernel:
        """Build the kernel for size ``n`` (default size if omitted).
        The IR depends on ``n`` alone, so a lowered program serves every
        input seed."""
        _bind_ir()
        return self.build(n if n is not None else self.default_n)

    def instantiate(
        self, n: int | None = None, seed: int = 12345
    ) -> tuple[Kernel, dict[str, np.ndarray]]:
        """Build the kernel and its inputs for size ``n`` (default size if
        omitted), with a deterministic generator."""
        import numpy as np

        size = n if n is not None else self.default_n
        rng = np.random.default_rng(seed)
        return self.kernel(size), self.make_inputs(size, rng)


_REGISTRY: dict[str, KernelSpec] = {}


def _register(spec: KernelSpec) -> KernelSpec:
    if spec.name in _REGISTRY:
        raise KernelError(f"duplicate kernel {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def kernel_names() -> list[str]:
    return sorted(_REGISTRY)


def get_kernel(name: str) -> KernelSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; available: {kernel_names()}"
        ) from None


def all_kernels() -> list[KernelSpec]:
    return [_REGISTRY[k] for k in kernel_names()]


def _uniform(rng: np.random.Generator, n: int, lo=0.1, hi=1.0) -> np.ndarray:
    return rng.uniform(lo, hi, n)


# the input generators run only when a kernel is instantiated, so numpy
# is imported there, not when the registry is read


def _zeros(n: int) -> np.ndarray:
    import numpy as np

    return np.zeros(n)


def _zeros_after(first: float, n: int) -> np.ndarray:
    """``first`` followed by ``n`` zeros."""
    out = _zeros(n + 1)
    out[0] = first
    return out


# -------------------------------------------------------------------------
# streaming kernels
# -------------------------------------------------------------------------

_register(KernelSpec(
    name="hydro",
    description="LL1 hydro fragment: x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])",
    category="streaming",
    build=lambda n: Kernel(
        "hydro",
        (ArrayDecl("x", n), ArrayDecl("y", n), ArrayDecl("z", n + 11)),
        (Loop("k", n, (
            Assign(at("x", k=1), add(c(0.84), mul(
                at("y", k=1),
                add(mul(c(1.1), at("z", 10, k=1)),
                    mul(c(0.37), at("z", 11, k=1))),
            ))),
        )),),
        description="LL1",
    ),
    make_inputs=lambda n, rng: {
        "x": _zeros(n), "y": _uniform(rng, n), "z": _uniform(rng, n + 11),
    },
    output_arrays=("x",),
))

_register(KernelSpec(
    name="daxpy",
    description="y[i] = a*x[i] + y[i] (in-place stream RMW)",
    category="streaming",
    build=lambda n: Kernel(
        "daxpy",
        (ArrayDecl("x", n), ArrayDecl("y", n)),
        (Loop("i", n, (
            Assign(at("y", i=1), add(mul(c(2.5), at("x", i=1)), at("y", i=1))),
        )),),
    ),
    make_inputs=lambda n, rng: {
        "x": _uniform(rng, n), "y": _uniform(rng, n),
    },
    output_arrays=("y",),
))

_register(KernelSpec(
    name="scale_shift",
    description="y[i] = a*x[i] + b (simplest possible stream)",
    category="streaming",
    build=lambda n: Kernel(
        "scale_shift",
        (ArrayDecl("x", n), ArrayDecl("y", n)),
        (Loop("i", n, (
            Assign(at("y", i=1), add(mul(c(3.0), at("x", i=1)), c(1.0))),
        )),),
    ),
    make_inputs=lambda n, rng: {"x": _uniform(rng, n), "y": _zeros(n)},
    output_arrays=("y",),
))

_register(KernelSpec(
    name="state_eqn",
    description="LL7-flavoured equation of state (6 load streams)",
    category="streaming",
    build=lambda n: Kernel(
        "state_eqn",
        (ArrayDecl("x", n), ArrayDecl("y", n), ArrayDecl("z", n),
         ArrayDecl("u", n + 3)),
        (Loop("k", n, (
            Assign(at("x", k=1), add(
                at("u", k=1),
                add(
                    mul(c(0.93), add(at("z", k=1), mul(c(0.93), at("y", k=1)))),
                    mul(c(0.37), add(
                        at("u", 3, k=1),
                        mul(c(0.93), add(
                            at("u", 2, k=1), mul(c(0.41), at("u", 1, k=1))
                        )),
                    )),
                ),
            )),
        )),),
        description="LL7 (reduced operand set)",
    ),
    make_inputs=lambda n, rng: {
        "x": _zeros(n), "y": _uniform(rng, n), "z": _uniform(rng, n),
        "u": _uniform(rng, n + 3),
    },
    output_arrays=("x",),
))

_register(KernelSpec(
    name="first_diff",
    description="LL12 first difference: x[i] = y[i+1] - y[i]",
    category="streaming",
    build=lambda n: Kernel(
        "first_diff",
        (ArrayDecl("x", n), ArrayDecl("y", n + 1)),
        (Loop("i", n, (
            Assign(at("x", i=1), sub(at("y", 1, i=1), at("y", i=1))),
        )),),
        description="LL12",
    ),
    make_inputs=lambda n, rng: {"x": _zeros(n), "y": _uniform(rng, n + 1)},
    output_arrays=("x",),
))

_register(KernelSpec(
    name="saxpy_strided",
    description="stride-2 triad: y[2i] = a*x[2i] + y[2i] (bank pressure)",
    category="streaming",
    build=lambda n: Kernel(
        "saxpy_strided",
        (ArrayDecl("x", 2 * n), ArrayDecl("y", 2 * n)),
        (Loop("i", n, (
            Assign(at("y", i=2), add(mul(c(1.5), at("x", i=2)), at("y", i=2))),
        )),),
    ),
    make_inputs=lambda n, rng: {
        "x": _uniform(rng, 2 * n), "y": _uniform(rng, 2 * n),
    },
    output_arrays=("y",),
))

_register(KernelSpec(
    name="stride8_copy",
    description="pathological stride-8 copy: collapses onto one bank "
                "at the default 8-way interleave",
    category="streaming",
    build=lambda n: Kernel(
        "stride8_copy",
        (ArrayDecl("x", 8 * n), ArrayDecl("y", 8 * n)),
        (Loop("i", n, (
            Assign(at("y", i=8), mul(c(2.0), at("x", i=8))),
        )),),
    ),
    make_inputs=lambda n, rng: {
        "x": _uniform(rng, 8 * n), "y": _zeros(8 * n),
    },
    output_arrays=("y",),
))

_register(KernelSpec(
    name="reverse_copy",
    description="negative-stride stream: y[i] = x[n-1-i]",
    category="streaming",
    build=lambda n: Kernel(
        "reverse_copy",
        (ArrayDecl("x", n), ArrayDecl("y", n)),
        (Loop("i", n, (
            Assign(at("y", i=1), mul(c(1.0), Ref("x", Affine.of(n - 1, i=-1)))),
        )),),
    ),
    make_inputs=lambda n, rng: {"x": _uniform(rng, n), "y": _zeros(n)},
    output_arrays=("y",),
))

_register(KernelSpec(
    name="conv4",
    description="LL10-flavoured 4-tap filter: four offset streams of one "
                "array",
    category="streaming",
    build=lambda n: Kernel(
        "conv4",
        (ArrayDecl("x", n + 3), ArrayDecl("y", n)),
        (Loop("i", n, (
            Assign(at("y", i=1), add(
                add(mul(c(0.25), at("x", i=1)), mul(c(0.5), at("x", 1, i=1))),
                add(mul(c(0.2), at("x", 2, i=1)), mul(c(0.05), at("x", 3, i=1))),
            )),
        )),),
        description="LL10 flavour",
    ),
    make_inputs=lambda n, rng: {"x": _uniform(rng, n + 3), "y": _zeros(n)},
    output_arrays=("y",),
))

# -------------------------------------------------------------------------
# in-place / polynomial
# -------------------------------------------------------------------------

_register(KernelSpec(
    name="integrate",
    description="LL9-flavoured in-place Horner update: "
                "px[i] = c0 + px[i]*(c1 + c2*px[i])",
    category="streaming",
    build=lambda n: Kernel(
        "integrate",
        (ArrayDecl("px", n),),
        (Loop("i", n, (
            Assign(at("px", i=1), add(c(0.1), mul(
                at("px", i=1), add(c(0.75), mul(c(0.2), at("px", i=1)))
            ))),
        )),),
        description="LL9 flavour",
    ),
    make_inputs=lambda n, rng: {"px": _uniform(rng, n)},
    output_arrays=("px",),
))

# -------------------------------------------------------------------------
# stencils (2-deep nests)
# -------------------------------------------------------------------------


def _stencil2d_kernel(n: int) -> Kernel:
    rows = max(n // 32, 2)
    width = 34  # row width including the 2 halo cells
    size = rows * width
    return Kernel(
        "stencil2d",
        (ArrayDecl("a", size), ArrayDecl("out", size)),
        (Loop("j", rows, (
            Loop("i", width - 2, (
                Assign(
                    Ref("out", Affine.of(1, j=width, i=1)),
                    add(
                        mul(c(0.3), Ref("a", Affine.of(0, j=width, i=1))),
                        add(
                            mul(c(0.4), Ref("a", Affine.of(1, j=width, i=1))),
                            mul(c(0.3), Ref("a", Affine.of(2, j=width, i=1))),
                        ),
                    ),
                ),
            )),
        )),),
        description="LL8 flavour (row-wise 3-point smoothing)",
    )


def _stencil2d_inputs(n: int, rng: np.random.Generator):
    rows = max(n // 32, 2)
    size = rows * 34
    return {"a": _uniform(rng, size), "out": _zeros(size)}


_register(KernelSpec(
    name="stencil2d",
    description="row-wise 3-point stencil over a 2-D grid (nested loops)",
    category="stencil",
    build=_stencil2d_kernel,
    make_inputs=_stencil2d_inputs,
    output_arrays=("out",),
))

# -------------------------------------------------------------------------
# recurrences
# -------------------------------------------------------------------------

_register(KernelSpec(
    name="tridiag",
    description="LL5 tri-diagonal elimination: x[i] = z[i]*(y[i] - x[i-1])",
    category="recurrence",
    build=lambda n: Kernel(
        "tridiag",
        (ArrayDecl("x", n + 1), ArrayDecl("y", n + 1), ArrayDecl("z", n + 1)),
        (Loop("i", n, (
            Assign(at("x", i=1), mul(
                at("z", i=1), sub(at("y", i=1), at("x", -1, i=1))
            )),
        ), start=1),),
        description="LL5",
    ),
    make_inputs=lambda n, rng: {
        "x": _zeros_after(0.5, n),
        "y": _uniform(rng, n + 1),
        "z": _uniform(rng, n + 1, 0.2, 0.9),
    },
    output_arrays=("x",),
))

_register(KernelSpec(
    name="first_sum",
    description="LL11 prefix sum: x[i] = x[i-1] + y[i]",
    category="recurrence",
    build=lambda n: Kernel(
        "first_sum",
        (ArrayDecl("x", n + 1), ArrayDecl("y", n + 1)),
        (Loop("i", n, (
            Assign(at("x", i=1), add(at("x", -1, i=1), at("y", i=1))),
        ), start=1),),
        description="LL11",
    ),
    make_inputs=lambda n, rng: {
        "x": _zeros_after(0.0, n),
        "y": _uniform(rng, n + 1),
    },
    output_arrays=("x",),
))

_register(KernelSpec(
    name="linear_rec",
    description="LL6-flavoured first-order recurrence: "
                "w[i] = w[i-1]*b[i] + x[i]",
    category="recurrence",
    build=lambda n: Kernel(
        "linear_rec",
        (ArrayDecl("w", n + 1), ArrayDecl("b", n + 1), ArrayDecl("x", n + 1)),
        (Loop("i", n, (
            Assign(at("w", i=1), add(
                mul(at("w", -1, i=1), at("b", i=1)), at("x", i=1)
            )),
        ), start=1),),
        description="LL6 flavour",
    ),
    make_inputs=lambda n, rng: {
        "w": _zeros_after(0.3, n),
        "b": _uniform(rng, n + 1, 0.1, 0.8),
        "x": _uniform(rng, n + 1),
    },
    output_arrays=("w",),
))

# -------------------------------------------------------------------------
# reductions
# -------------------------------------------------------------------------

_register(KernelSpec(
    name="inner_product",
    description="LL3 inner product: q += z[k]*x[k]",
    category="reduction",
    build=lambda n: Kernel(
        "inner_product",
        (ArrayDecl("x", n), ArrayDecl("z", n), ArrayDecl("out", 1)),
        (Loop("k", n, (
            Reduce("+", at("out"), mul(at("z", k=1), at("x", k=1))),
        )),),
        description="LL3",
    ),
    make_inputs=lambda n, rng: {
        "x": _uniform(rng, n), "z": _uniform(rng, n), "out": _zeros(1),
    },
    output_arrays=("out",),
))

_register(KernelSpec(
    name="strided_dot",
    description="stride-5 inner product (LL2 banking flavour)",
    category="reduction",
    build=lambda n: Kernel(
        "strided_dot",
        (ArrayDecl("x", 5 * n), ArrayDecl("z", 5 * n), ArrayDecl("out", 1)),
        (Loop("k", n, (
            Reduce("+", at("out"), mul(at("z", k=5), at("x", k=5))),
        )),),
        description="LL2 flavour",
    ),
    make_inputs=lambda n, rng: {
        "x": _uniform(rng, 5 * n), "z": _uniform(rng, 5 * n),
        "out": _zeros(1),
    },
    output_arrays=("out",),
))

_register(KernelSpec(
    name="max_abs",
    description="LL24 flavour: running maximum of |x[i]|",
    category="reduction",
    build=lambda n: Kernel(
        "max_abs",
        (ArrayDecl("x", n), ArrayDecl("out", 1)),
        (Loop("i", n, (
            Reduce("max", at("out"), absval(at("x", i=1)), init=0.0),
        )),),
        description="LL24 flavour",
    ),
    make_inputs=lambda n, rng: {
        "x": rng.uniform(-1.0, 1.0, n), "out": _zeros(1),
    },
    output_arrays=("out",),
))

def _matvec_kernel(n: int) -> Kernel:
    rows = max(n // 16, 2)
    cols = 16
    return Kernel(
        "matvec",
        (ArrayDecl("a", rows * cols), ArrayDecl("x", cols),
         ArrayDecl("y", rows)),
        (Loop("j", rows, (
            Loop("i", cols, (
                Reduce("+", at("y", j=1), mul(
                    Ref("a", Affine.of(0, j=cols, i=1)), at("x", i=1)
                )),
            )),
        )),),
        description="dense matrix-vector product (per-row reduction)",
    )


def _matvec_inputs(n: int, rng: np.random.Generator):
    rows = max(n // 16, 2)
    return {
        "a": _uniform(rng, rows * 16), "x": _uniform(rng, 16),
        "y": _zeros(rows),
    }


_register(KernelSpec(
    name="matvec",
    description="y[j] = sum_i A[j,i]*x[i] — per-row reductions over a "
                "2-deep nest",
    category="reduction",
    build=_matvec_kernel,
    make_inputs=_matvec_inputs,
    output_arrays=("y",),
))


def _row_max_kernel(n: int) -> Kernel:
    rows = max(n // 16, 2)
    cols = 16
    return Kernel(
        "row_max",
        (ArrayDecl("a", rows * cols), ArrayDecl("m", rows)),
        (Loop("j", rows, (
            Loop("i", cols, (
                Reduce("max", at("m", j=1),
                       absval(Ref("a", Affine.of(0, j=cols, i=1))),
                       init=0.0),
            )),
        )),),
        description="per-row maximum of |A[j,i]|",
    )


def _row_max_inputs(n: int, rng: np.random.Generator):
    rows = max(n // 16, 2)
    return {"a": rng.uniform(-1, 1, rows * 16), "m": _zeros(rows)}


_register(KernelSpec(
    name="row_max",
    description="m[j] = max_i |A[j,i]| — per-row max reduction",
    category="reduction",
    build=_row_max_kernel,
    make_inputs=_row_max_inputs,
    output_arrays=("m",),
))


# -------------------------------------------------------------------------
# gathers / scatters / LOD
# -------------------------------------------------------------------------

_register(KernelSpec(
    name="pic_gather",
    description="LL13-flavoured particle push: vx[i] += e[ix[i]]",
    category="gather",
    build=lambda n: Kernel(
        "pic_gather",
        (ArrayDecl("vx", n), ArrayDecl("e", n), ArrayDecl("ix", n)),
        (Loop("i", n, (
            Assign(at("vx", i=1), add(at("vx", i=1), gat("e", at("ix", i=1)))),
        )),),
        description="LL13 flavour",
    ),
    make_inputs=lambda n, rng: {
        "vx": _uniform(rng, n), "e": _uniform(rng, n),
        "ix": rng.integers(0, n, n).astype(float),
    },
    output_arrays=("vx",),
))

_register(KernelSpec(
    name="pic_scatter",
    description="LL14-flavoured charge deposit: rho[ir[i]] += q*w[i] "
                "(ir is a permutation; see hazard caveat)",
    category="scatter",
    build=lambda n: Kernel(
        "pic_scatter",
        (ArrayDecl("rho", n), ArrayDecl("w", n), ArrayDecl("ir", n)),
        (Loop("i", n, (
            Assign(
                gat("rho", at("ir", i=1)),
                add(gat("rho", at("ir", i=1)), mul(c(0.8), at("w", i=1))),
            ),
        )),),
        description="LL14 flavour",
    ),
    make_inputs=lambda n, rng: {
        "rho": _uniform(rng, n), "w": _uniform(rng, n),
        "ir": rng.permutation(n).astype(float),
    },
    output_arrays=("rho",),
))

_register(KernelSpec(
    name="computed_gather",
    description="table lookup at a value-computed subscript — every access"
                " is a loss-of-decoupling event",
    category="lod",
    build=lambda n: Kernel(
        "computed_gather",
        (ArrayDecl("x", n), ArrayDecl("tab", 64), ArrayDecl("y", n)),
        (Loop("i", n, (
            Assign(at("y", i=1), cat(
                "tab", floor(fmod(mul(at("x", i=1), c(997.0)), c(64.0)))
            )),
        )),),
    ),
    make_inputs=lambda n, rng: {
        "x": _uniform(rng, n), "tab": _uniform(rng, 64), "y": _zeros(n),
    },
    output_arrays=("y",),
))

# -------------------------------------------------------------------------
# selects
# -------------------------------------------------------------------------

_register(KernelSpec(
    name="wave1d",
    description="second-order wave-equation step: unew = 2u - uold + "
                "c*(u[i+1] - 2u[i] + u[i-1]) (4 load streams)",
    category="stencil",
    build=lambda n: Kernel(
        "wave1d",
        (ArrayDecl("u", n + 2), ArrayDecl("uold", n + 2),
         ArrayDecl("unew", n + 2)),
        (Loop("i", n, (
            Assign(at("unew", i=1), add(
                sub(mul(c(2.0), at("u", i=1)), at("uold", i=1)),
                mul(c(0.25), add(
                    sub(at("u", 1, i=1), mul(c(2.0), at("u", i=1))),
                    at("u", -1, i=1),
                )),
            )),
        ), start=1),),
    ),
    make_inputs=lambda n, rng: {
        "u": _uniform(rng, n + 2), "uold": _uniform(rng, n + 2),
        "unew": _zeros(n + 2),
    },
    output_arrays=("unew",),
))


def _hydro2d_kernel(n: int) -> Kernel:
    rows = max(n // 32, 2)
    width = 33
    size = rows * width
    # LL18-flavoured: two result grids updated per cell from one source
    return Kernel(
        "hydro2d",
        (ArrayDecl("zp", size), ArrayDecl("za", size), ArrayDecl("zb", size)),
        (Loop("j", rows, (
            Loop("i", width - 1, (
                Assign(
                    Ref("za", Affine.of(0, j=width, i=1)),
                    mul(c(0.5), add(
                        Ref("zp", Affine.of(0, j=width, i=1)),
                        Ref("zp", Affine.of(1, j=width, i=1)),
                    )),
                ),
                Assign(
                    Ref("zb", Affine.of(0, j=width, i=1)),
                    sub(
                        Ref("zp", Affine.of(1, j=width, i=1)),
                        Ref("zp", Affine.of(0, j=width, i=1)),
                    ),
                ),
            )),
        )),),
        description="LL18 flavour (two store streams per loop)",
    )


def _hydro2d_inputs(n: int, rng: np.random.Generator):
    rows = max(n // 32, 2)
    size = rows * 33
    return {"zp": _uniform(rng, size), "za": _zeros(size),
            "zb": _zeros(size)}


_register(KernelSpec(
    name="hydro2d",
    description="LL18-flavoured 2-D hydro fragment: two result grids "
                "written per inner loop",
    category="stencil",
    build=_hydro2d_kernel,
    make_inputs=_hydro2d_inputs,
    output_arrays=("za", "zb"),
))

_register(KernelSpec(
    name="aos_sum",
    description="array-of-structures reduction: s += x[3i]*x[3i+1] + "
                "x[3i+2] (three stride-3 streams of one array)",
    category="reduction",
    build=lambda n: Kernel(
        "aos_sum",
        (ArrayDecl("x", 3 * n), ArrayDecl("out", 1)),
        (Loop("i", n, (
            Reduce("+", at("out"), add(
                mul(at("x", 0, i=3), at("x", 1, i=3)), at("x", 2, i=3)
            )),
        )),),
    ),
    make_inputs=lambda n, rng: {
        "x": _uniform(rng, 3 * n), "out": _zeros(1),
    },
    output_arrays=("out",),
))

_register(KernelSpec(
    name="field_interp",
    description="gather mixed with dense streams: "
                "z[i] = x[i]*e[ix[i]] + y[i]",
    category="gather",
    build=lambda n: Kernel(
        "field_interp",
        (ArrayDecl("x", n), ArrayDecl("y", n), ArrayDecl("z", n),
         ArrayDecl("e", n), ArrayDecl("ix", n)),
        (Loop("i", n, (
            Assign(at("z", i=1), add(
                mul(at("x", i=1), gat("e", at("ix", i=1))), at("y", i=1)
            )),
        )),),
    ),
    make_inputs=lambda n, rng: {
        "x": _uniform(rng, n), "y": _uniform(rng, n), "z": _zeros(n),
        "e": _uniform(rng, n),
        "ix": rng.integers(0, n, n).astype(float),
    },
    output_arrays=("z",),
))

_register(KernelSpec(
    name="clip",
    description="elementwise clamp: y[i] = min(max(x[i], lo[i]), hi[i])",
    category="select",
    build=lambda n: Kernel(
        "clip",
        (ArrayDecl("x", n), ArrayDecl("lo", n), ArrayDecl("hi", n),
         ArrayDecl("y", n)),
        (Loop("i", n, (
            Assign(at("y", i=1), BinOp(
                "min", BinOp("max", at("x", i=1), at("lo", i=1)),
                at("hi", i=1),
            )),
        )),),
    ),
    make_inputs=lambda n, rng: {
        "x": rng.uniform(-1, 2, n), "lo": rng.uniform(-0.5, 0.0, n),
        "hi": rng.uniform(0.8, 1.2, n), "y": _zeros(n),
    },
    output_arrays=("y",),
))

_register(KernelSpec(
    name="count_above",
    description="predicated reduction: cnt += (x[i] > t) ? 1 : 0",
    category="select",
    build=lambda n: Kernel(
        "count_above",
        (ArrayDecl("x", n), ArrayDecl("out", 1)),
        (Loop("i", n, (
            Reduce("+", at("out"), Select(
                Cmp("<", c(0.5), at("x", i=1)), c(1.0), c(0.0)
            )),
        )),),
    ),
    make_inputs=lambda n, rng: {
        "x": _uniform(rng, n, 0, 1), "out": _zeros(1),
    },
    output_arrays=("out",),
))

_register(KernelSpec(
    name="threshold",
    description="data-dependent select: y[i] = x[i] if x[i] > t else c",
    category="select",
    build=lambda n: Kernel(
        "threshold",
        (ArrayDecl("x", n), ArrayDecl("y", n)),
        (Loop("i", n, (
            Assign(at("y", i=1), Select(
                Cmp("<", c(0.5), at("x", i=1)), at("x", i=1), c(0.0)
            )),
        )),),
    ),
    make_inputs=lambda n, rng: {"x": _uniform(rng, n, 0, 1), "y": _zeros(n)},
    output_arrays=("y",),
))
