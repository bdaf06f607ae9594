"""Exception hierarchy for the SMA reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Sub-classes are split by
subsystem: assembly-time problems (:class:`AssemblyError`), problems detected
while a machine is running (:class:`SimulationError`), memory-system misuse
(:class:`MemoryError_`), and kernel-IR lowering failures
(:class:`LoweringError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class AssemblyError(ReproError):
    """Raised for malformed assembly text or unresolvable labels.

    Carries the (1-based) source line number when available.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """Raised when an instruction cannot be packed into / unpacked from
    its binary representation (e.g. register index out of range)."""


class SimulationError(ReproError):
    """Raised when a machine reaches an illegal state at run time.

    Examples: executing past the end of a program, an instruction illegal
    for the processor that fetched it, or exceeding a run's cycle budget.
    """


class MemoryError_(ReproError):
    """Raised for out-of-bounds or non-integral memory addresses."""


class QueueError(ReproError):
    """Raised for architectural-queue protocol violations (popping an
    empty queue, filling an unreserved slot, ...).  These indicate bugs in
    a processor model, never in user programs, so they are not recoverable.
    """


class LoweringError(ReproError):
    """Raised when a kernel-IR construct cannot be compiled for the
    requested target machine (e.g. too many load streams for the number of
    architectural load queues)."""


class KernelError(ReproError):
    """Raised for malformed kernel IR (unknown arrays, bad loop bounds)."""
