"""Write-sequence verification: a stronger check than final-state equality.

Two machines can end a run with identical memory images while having done
different — and differently *wrong* — things along the way (a transient
bad value overwritten by a later correct one, stores landing out of
program order per address, double stores).  This module records the full
functional access trace of a run and checks the **per-address write
sequence** against the sequential semantics of the kernel:

* :class:`MemoryTracer` — hooks a machine's functional store and records
  every simulated read and write;
* :func:`reference_write_sequences` — the golden per-address write
  sequences, derived by running the IR reference interpreter with a
  recording hook and mapping (array, index) to addresses through the
  kernel's layout;
* :func:`diff_write_sequences` — structural comparison with a readable
  mismatch report;
* :func:`verify_kernel_writes` — one-call check of any machine run.

The per-address *order* matters and is what a decoupled machine could
plausibly get wrong (loads lead stores; two store streams interleave at
the memory); per-address sequences sidestep legitimate cross-address
reordering, which decoupling is allowed — indeed designed — to do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .config import ScalarConfig, SMAConfig
from .kernels import Kernel, lower_scalar, lower_sma
from .kernels.layout import Layout
from .kernels.reference import ReferenceInterpreter


@dataclass
class MemoryTracer:
    """Records every functional memory access of a simulated run."""

    #: (kind, address, value) in occurrence order; kind is "r" or "w"
    events: list[tuple[str, int, float]] = field(default_factory=list)

    def __call__(self, kind: str, addr: int, value: float) -> None:
        self.events.append((kind, addr, value))

    def install(self, machine) -> "MemoryTracer":
        """Attach to a machine's functional store; returns self."""
        machine.memory.observer = self
        return self

    def write_sequences(self) -> dict[int, list[float]]:
        """Per-address ordered list of written values."""
        sequences: dict[int, list[float]] = {}
        for kind, addr, value in self.events:
            if kind == "w":
                sequences.setdefault(addr, []).append(value)
        return sequences

    def read_addresses(self) -> set[int]:
        return {addr for kind, addr, _ in self.events if kind == "r"}

    @property
    def reads(self) -> int:
        return sum(1 for kind, _, _ in self.events if kind == "r")

    @property
    def writes(self) -> int:
        return sum(1 for kind, _, _ in self.events if kind == "w")


class _RecordingInterpreter(ReferenceInterpreter):
    """The reference interpreter, recording each write's address (through
    ``layout``) and value in program order."""

    def __init__(self, kernel: Kernel, inputs, layout: Layout) -> None:
        super().__init__(kernel, inputs)
        self.layout = layout
        self.sequences: dict[int, list[float]] = {}

    def write(self, array: str, index: int, value: float) -> None:
        super().write(array, index, value)
        addr = self.layout.base(array) + index
        self.sequences.setdefault(addr, []).append(value)


def reference_write_sequences(
    kernel: Kernel,
    inputs: Mapping[str, np.ndarray],
    layout: Layout,
) -> dict[int, list[float]]:
    """Golden per-address write sequences under sequential semantics."""
    interp = _RecordingInterpreter(kernel, inputs, layout)
    interp.run()
    return interp.sequences


@dataclass(frozen=True)
class WriteMismatch:
    address: int
    expected: tuple[float, ...]
    actual: tuple[float, ...]

    def __str__(self) -> str:
        return (
            f"addr {self.address}: expected writes {list(self.expected)}, "
            f"observed {list(self.actual)}"
        )


def diff_write_sequences(
    expected: dict[int, list[float]],
    actual: dict[int, list[float]],
) -> list[WriteMismatch]:
    """All addresses whose write sequences differ (missing = empty)."""
    mismatches = []
    for addr in sorted(set(expected) | set(actual)):
        want = tuple(expected.get(addr, ()))
        got = tuple(actual.get(addr, ()))
        if want != got:
            mismatches.append(WriteMismatch(addr, want, got))
    return mismatches


def verify_kernel_writes(
    kernel: Kernel,
    inputs: Mapping[str, np.ndarray],
    machine: str = "sma",
    sma_config: SMAConfig | None = None,
    scalar_config: ScalarConfig | None = None,
) -> list[WriteMismatch]:
    """Run ``kernel`` on the named machine with a tracer attached and
    compare its per-address write sequence against sequential semantics.
    Returns the (hopefully empty) mismatch list.
    """
    from .harness.runner import _fit_memory, _load_inputs

    if machine in ("sma", "sma-nostream"):
        from .core import SMAMachine
        from dataclasses import replace

        lowered = lower_sma(kernel, use_streams=(machine == "sma"))
        cfg = sma_config or SMAConfig()
        cfg = replace(cfg, memory=_fit_memory(cfg.memory, lowered.layout))
        sim = SMAMachine(lowered.access_program, lowered.execute_program, cfg)
        layout = lowered.layout
    elif machine == "scalar":
        from .baseline import ScalarMachine
        from dataclasses import replace

        lowered_s = lower_scalar(kernel)
        cfg_s = scalar_config or ScalarConfig()
        cfg_s = replace(
            cfg_s, memory=_fit_memory(cfg_s.memory, lowered_s.layout)
        )
        sim = ScalarMachine(lowered_s.program, cfg_s)
        layout = lowered_s.layout
    else:
        raise ValueError(f"unknown machine {machine!r}")
    _load_inputs(sim, layout, kernel, inputs)
    tracer = MemoryTracer().install(sim)
    sim.run()
    golden = reference_write_sequences(kernel, inputs, layout)
    return diff_write_sequences(golden, tracer.write_sequences())
