"""repro — a reproduction of the Structured Memory Access architecture.

This package implements, from scratch, the decoupled access/execute (DAE)
machine of "A Structured Memory Access Architecture" (ICPP 1983): an
Access Processor that walks *structured access descriptors* through a
banked memory, an Execute Processor fed through architectural FIFO queues,
a conventional scalar baseline (optionally cached) for comparison, a small
loop-kernel IR with compilers for both machines, a Livermore-loops-style
workload suite, and an experiment harness that regenerates the evaluation.

Quick start::

    from repro import get_kernel, compare_spec
    result = compare_spec(get_kernel("hydro"))
    print(f"speedup {result.speedup:.2f}x")

See README.md for the architecture tour and DESIGN.md for the experiment
index (including the provenance note about the reconstructed evaluation).
"""

from ._lazy import lazy_package

# every name is imported from its subpackage on first use (see
# repro._lazy), so ``import repro`` loads no simulator and no numpy
lazy_package(__name__, {
    ".baseline": ("ScalarMachine", "ScalarResult"),
    ".config": ("CacheConfig", "MemoryConfig", "QueueConfig",
                "ScalarConfig", "SMAConfig", "default_scalar_config",
                "default_sma_config"),
    ".core": ("SMAMachine", "SMAResult"),
    ".errors": ("AssemblyError", "EncodingError", "KernelError",
                "LoweringError", "MemoryError_", "QueueError",
                "ReproError", "SimulationError"),
    ".harness": ("EXPERIMENTS", "compare_spec", "run_experiment",
                 "run_on_scalar", "run_on_sma"),
    ".isa": ("Program", "assemble", "disassemble"),
    ".kernels": ("Kernel", "all_kernels", "get_kernel", "kernel_names",
                 "lower_scalar", "lower_sma", "parse_kernel",
                 "run_reference"),
})

__version__ = "1.0.0"

__all__ = [
    "AssemblyError",
    "CacheConfig",
    "EXPERIMENTS",
    "EncodingError",
    "Kernel",
    "KernelError",
    "LoweringError",
    "MemoryConfig",
    "MemoryError_",
    "Program",
    "QueueConfig",
    "QueueError",
    "ReproError",
    "SMAConfig",
    "SMAMachine",
    "SMAResult",
    "ScalarConfig",
    "ScalarMachine",
    "ScalarResult",
    "SimulationError",
    "__version__",
    "all_kernels",
    "assemble",
    "compare_spec",
    "default_scalar_config",
    "default_sma_config",
    "disassemble",
    "get_kernel",
    "kernel_names",
    "lower_scalar",
    "lower_sma",
    "parse_kernel",
    "run_experiment",
    "run_on_scalar",
    "run_on_sma",
    "run_reference",
]
