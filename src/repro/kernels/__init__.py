"""Kernel IR, compilers, reference interpreter, and the workload suite.

Every name below is imported from its submodule on first use (see
:mod:`repro._lazy`): reading the suite's registry loads no compiler, no
reference interpreter and no numpy.
"""

from .._lazy import lazy_package

lazy_package(__name__, {
    ".ir": (
        "Affine", "ArrayDecl", "Assign", "BinOp", "Cmp", "Computed",
        "Const", "Expr", "Indirect", "Kernel", "Loop", "Reduce", "Ref",
        "Select", "Stmt", "UnOp", "expr_refs", "loop_nest",
        "validate_kernel",
    ),
    ".lang": ("ParseError", "parse_kernel"),
    ".layout": ("Layout", "layout_arrays"),
    ".lower_scalar": ("LoweredScalar", "lower_scalar"),
    ".lower_sma": ("LoweredSMA", "SMALoweringInfo", "lower_sma"),
    ".lower_vector": ("LoweredVector", "VectorizationError",
                      "lower_vector"),
    ".reference": ("ReferenceInterpreter", "run_reference"),
    ".suite": ("KernelSpec", "all_kernels", "get_kernel", "kernel_names"),
})

__all__ = [
    "Affine",
    "ArrayDecl",
    "Assign",
    "BinOp",
    "Cmp",
    "Computed",
    "Const",
    "Expr",
    "Indirect",
    "Kernel",
    "KernelSpec",
    "Layout",
    "ParseError",
    "Loop",
    "LoweredSMA",
    "LoweredVector",
    "LoweredScalar",
    "Reduce",
    "Ref",
    "ReferenceInterpreter",
    "SMALoweringInfo",
    "Select",
    "Stmt",
    "UnOp",
    "all_kernels",
    "expr_refs",
    "get_kernel",
    "kernel_names",
    "layout_arrays",
    "loop_nest",
    "parse_kernel",
    "lower_scalar",
    "lower_sma",
    "lower_vector",
    "run_reference",
    "VectorizationError",
    "validate_kernel",
]
