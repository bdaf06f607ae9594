"""Process-wide RunReport capture for the job layer.

The sweep harness runs :class:`repro.harness.jobs.Job` descriptions that
are frozen and picklable — growing them a ``metrics`` field would change
every on-disk cache key and leak reports through the process pool.
Instead, capture is ambient: ``with capture_reports(dir):`` arms a
process-local collector, and the job runners (``_run_sma`` /
``_run_scalar``) check :func:`active_capture` and route each run's
RunReport into it, one per job that actually runs: ``run_jobs`` runs
each distinct job once, so a job several experiments list yields one
report, and a cache hit yields none.  Capture is inherently serial —
worker processes and a ``repro serve`` instance do not see the
parent's collector, so ``repro experiment --metrics`` forces
``--jobs 1`` and is refused beside ``--url``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from pathlib import Path

from .report import RunReport

_CAPTURE: "ReportCapture | None" = None


class ReportCapture:
    """Collects RunReports; optionally persists each as JSON on add."""

    def __init__(self, directory: str | Path | None = None):
        self.reports: list[RunReport] = []
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def add(self, report: RunReport) -> Path | None:
        """Record one report; returns the file written (if persisting)."""
        self.reports.append(report)
        if self.directory is None:
            return None
        slug = re.sub(r"[^A-Za-z0-9_.-]", "_",
                      f"{report.machine}-{report.kernel}")
        path = self.directory / f"{len(self.reports):04d}-{slug}.json"
        path.write_text(report.to_json() + "\n")
        return path


def active_capture() -> ReportCapture | None:
    """The collector armed by :func:`capture_reports`, if any."""
    return _CAPTURE


@contextmanager
def capture_reports(directory: str | Path | None = None):
    """Arm RunReport capture for the duration of the block."""
    global _CAPTURE
    if _CAPTURE is not None:
        raise RuntimeError("RunReport capture is already active")
    collector = ReportCapture(directory)
    _CAPTURE = collector
    try:
        yield collector
    finally:
        _CAPTURE = None
