"""Sweep-as-a-service: an asyncio job server over the crash-safe harness.

The paper's experiment tables are thousands of near-identical
``(kernel, config)`` points, and heavy sweep traffic is mostly
*duplicate* points.  This package puts the harness's
:class:`~repro.harness.scheduler.JobScheduler` — the one that runs
``run_jobs(workers=N)``: request coalescing, per-job timeout/retry,
one :func:`~repro.harness.jobs.run_job` call per attempt — behind a
stdlib-only HTTP service:

:mod:`~repro.service.protocol`
    The wire format: :class:`~repro.harness.jobs.Job` <-> JSON specs.
    The server keys everything by the same canonical ``repr(Job)`` the
    harness cache uses (:func:`repro.harness.parallel.job_key`) and
    keeps results in the harness's own
    :class:`~repro.harness.store.ResultStore`, so a
    ``repro experiment --cache`` directory and a ``repro serve`` store
    are one and the same.
:mod:`~repro.service.server`
    Minimal asyncio HTTP/1.1 front end over one scheduler with a
    :class:`~repro.harness.store.ResultStore`: ``POST /v1/jobs``,
    ``GET /v1/jobs/<key>``, ``GET /v1/stats`` (the scheduler's
    :class:`~repro.harness.parallel.SweepStats` and store counters),
    per-worker drain between jobs, and shutdown.
:mod:`~repro.service.client`
    Blocking stdlib client used by ``run_jobs`` under a
    ``HarnessPolicy.service_url`` (``repro experiment --url``) and the
    CI smoke.
"""

from ..harness.scheduler import (
    JobScheduler,
    QueueFullError,
    SchedulerDraining,
)
from .client import ServiceClient, ServiceError
from .protocol import ProtocolError, job_from_spec, job_to_spec
from .server import SweepServer

__all__ = [
    "JobScheduler",
    "ProtocolError",
    "QueueFullError",
    "SchedulerDraining",
    "ServiceClient",
    "ServiceError",
    "SweepServer",
    "job_from_spec",
    "job_to_spec",
]
