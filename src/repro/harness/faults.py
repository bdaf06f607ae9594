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
    unflushed jobs re-executed).  ``k`` is a whole number >= 1, and 1
    when omitted.
``sleep:s``
    The next job to start sleeps ``s`` seconds first, for exercising
    the per-job timeout path deterministically.  ``s`` is finite and
    >= 0, and 0 when omitted.

The first two modes take no value.  :class:`FaultSpec` refuses an
unknown mode and a malformed value alike, as a ``ValueError`` raised
when the spec is built, so ``--inject-fault`` exits before any job runs.

Every mode fires exactly once per sweep, in the harness around the
simulator: a fault never reaches a machine, so no job's spec, cache key
or result changes.  Across a process pool "once" needs shared state, so
a spec may carry a ``token_path``: the first process to create the
token file with ``O_CREAT | O_EXCL`` wins and fires, everyone else
skips.  Without a token path the mode fires once per process.
"""

from __future__ import annotations

import math
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
#: ``:value`` argument, the others none)
MODES = ("worker-kill", "cache-corrupt", "driver-kill", "sleep")

#: the value ``driver-kill`` and ``sleep`` take when none is given
_DEFAULT_VALUE = {"driver-kill": 1.0, "sleep": 0.0}


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``--inject-fault`` request."""

    mode: str
    #: ``driver-kill``'s flush count or ``sleep``'s seconds, stored as
    #: the mode's default when omitted; ``None`` for the modes that
    #: take no value
    value: float | None = None
    #: shared once-only token file (see module docstring); created with
    #: ``O_CREAT | O_EXCL`` by whichever process fires the fault first.
    token_path: str | None = None

    def __post_init__(self) -> None:
        mode, value = self.mode, self.value
        if mode not in MODES:
            raise ValueError(
                f"unknown fault mode {mode!r}; known: " + ", ".join(MODES)
            )
        if mode not in _DEFAULT_VALUE:
            if value is not None:
                raise ValueError(
                    f"fault mode {mode!r} takes no value; got {value!r}"
                )
            return
        if value is None:
            value = _DEFAULT_VALUE[mode]
        if not math.isfinite(value) or value < 0:
            raise ValueError(
                f"fault mode {mode!r} needs a finite value >= 0; "
                f"got {value!r}"
            )
        if mode == "driver-kill" and (value < 1 or value != int(value)):
            raise ValueError(
                "fault mode 'driver-kill' needs a whole number of "
                f"flushes >= 1; got {value!r}"
            )
        object.__setattr__(self, "value", float(value))

    @classmethod
    def parse(cls, text: str, token_path: str | None = None) -> "FaultSpec":
        """Parse CLI syntax: ``mode`` or ``mode:value``."""
        mode, colon, arg = text.partition(":")
        if not colon:
            return cls(mode, None, token_path)
        try:
            value = float(arg)
        except ValueError:
            raise ValueError(
                f"fault value {arg!r} in {text!r} is not a number"
            ) from None
        return cls(mode, value, token_path)


#: the fault spec active in *this* process; pool workers get it via the
#: executor initializer, the serial path installs it around the loop.
_ACTIVE: Optional[FaultSpec] = None

#: process-local once-only memory for specs without a token file
_fired: set[str] = set()


def install(spec: Optional[FaultSpec]) -> Optional[FaultSpec]:
    """Set the process-wide active fault spec; returns the previous one.
    Pool workers call it from :func:`repro.harness.parallel._pool_init`."""
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
        if flushed >= spec.value and _claim(spec):
            os.kill(os.getpid(), signal.SIGKILL)
    elif spec.mode == "cache-corrupt":
        if _claim(spec):
            text = path.read_text()
            path.write_text(text[: max(1, len(text) // 2)])
