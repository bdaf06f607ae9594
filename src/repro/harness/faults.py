"""Fault injection for the sweep harness.

CI proves the harness's recovery paths by *injecting* the failures they
recover from.  A :class:`FaultSpec` names one failure mode:

``worker-kill``
    The next job to start SIGKILLs its own process — a crashed pool
    worker (``BrokenProcessPool``) under ``--jobs N``, or a killed
    driver in serial mode.
``cache-corrupt``
    The next flushed cache entry is cut to its first half after it
    lands, modelling a crash between ``write`` and ``fsync`` on a
    filesystem that tears the write.  A later sweep must catch it by
    its digest and quarantine it, not crash or serve it.
``driver-kill:k``
    SIGKILL the sweep driver after ``k`` cache flushes — the
    kill-resume scenario (``--resume`` must finish with only the
    unflushed jobs re-executed).
``sleep:s``
    The next job to start sleeps ``s`` seconds first, for exercising
    the per-job timeout path deterministically.

Every mode fires exactly once per sweep, in the harness around the
simulator: a fault never reaches a machine, so no job's spec, cache key
or result changes.  Across a process pool "once" needs shared state, so
a spec may carry a ``token_path``: the first process to create the
token file with ``O_CREAT | O_EXCL`` wins and fires, everyone else
skips.  Without a token path the mode fires once per process.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "MODES",
    "FaultSpec",
    "active",
    "after_flush",
    "before_job",
    "install",
]

#: recognized fault modes (``driver-kill`` and ``sleep`` take a
#: ``:value`` argument)
MODES = ("worker-kill", "cache-corrupt", "driver-kill", "sleep")


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``--inject-fault`` request."""

    mode: str
    value: float = 0.0
    #: shared once-only token file (see module docstring); created with
    #: ``O_CREAT | O_EXCL`` by whichever process fires the fault first.
    token_path: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; known: "
                + ", ".join(MODES)
            )

    @classmethod
    def parse(cls, text: str, token_path: str | None = None) -> "FaultSpec":
        """Parse CLI syntax: ``mode`` or ``mode:value``."""
        mode, _, arg = text.partition(":")
        if mode not in MODES:
            raise ValueError(
                f"unknown fault mode {mode!r}; known: {', '.join(MODES)}"
            )
        return cls(mode, float(arg) if arg else 0.0, token_path)


#: the fault spec active in *this* process; pool workers get it via the
#: executor initializer, the serial path installs it around the loop.
_ACTIVE: Optional[FaultSpec] = None

#: process-local once-only memory for specs without a token file
_fired: set[str] = set()


def install(spec: Optional[FaultSpec]) -> Optional[FaultSpec]:
    """Set the process-wide active fault spec; returns the previous one.
    Used directly as a ``ProcessPoolExecutor`` initializer."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = spec
    return previous


def active() -> Optional[FaultSpec]:
    return _ACTIVE


def _claim(spec: FaultSpec) -> bool:
    """True exactly once per sweep (token file) or per process."""
    if spec.token_path:
        try:
            fd = os.open(
                spec.token_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True
    if spec.mode in _fired:
        return False
    _fired.add(spec.mode)
    return True


def before_job(job) -> None:
    """Hook :func:`repro.harness.jobs.run_job` as a job starts, in
    whichever process runs it."""
    spec = _ACTIVE
    if spec is None:
        return
    if spec.mode == "worker-kill":
        if _claim(spec):
            os.kill(os.getpid(), signal.SIGKILL)
    elif spec.mode == "sleep":
        if _claim(spec):
            time.sleep(spec.value)


def after_flush(spec: Optional[FaultSpec], path, flushed: int) -> None:
    """Hook called by the sweep driver after each cache flush."""
    if spec is None:
        return
    if spec.mode == "driver-kill":
        threshold = int(spec.value) if spec.value else 1
        if flushed >= threshold and _claim(spec):
            os.kill(os.getpid(), signal.SIGKILL)
    elif spec.mode == "cache-corrupt":
        if _claim(spec):
            text = path.read_text()
            path.write_text(text[: max(1, len(text) // 2)])
