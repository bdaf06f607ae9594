"""Sweep-as-a-service: an asyncio job server over the crash-safe harness.

ROADMAP item 1: the paper's experiment tables are thousands of
near-identical ``(kernel, config)`` points, and heavy sweep traffic is
mostly *duplicate* points.  This package wraps the PR 5 harness substrate
(atomic cache flushes, per-job timeout/retry, ``snapshot()``/
``restore()``) in a stdlib-only service:

:mod:`~repro.service.protocol`
    The wire format: :class:`~repro.harness.jobs.Job` <-> JSON specs.
    The server keys everything by the same canonical ``repr(Job)`` the
    harness cache uses (:func:`repro.harness.parallel.job_key`) and
    keeps results in the harness's own
    :class:`~repro.harness.store.ResultStore`, so a ``repro sweep``
    cache directory and a ``repro serve`` store are one and the same.
:mod:`~repro.service.slices`
    Preemption-safe job execution: eligible jobs run in bounded cycle
    slices with a machine/cluster snapshot between slices, so a drained
    or crashed worker's job resumes on another worker without lost
    cycles — and still lands a result byte-identical to ``run_job``.
:mod:`~repro.service.scheduler`
    The asyncio scheduler: request coalescing (identical in-flight jobs
    share one execution), bounded-queue backpressure, per-job
    timeout/retry via :class:`~repro.harness.parallel.HarnessPolicy`, a
    fingerprint-seeded process-pool fleet with crash respawn, and
    graceful per-worker drain with checkpoint migration.
:mod:`~repro.service.server`
    Minimal asyncio HTTP/1.1 front end: ``POST /v1/jobs``,
    ``GET /v1/jobs/<key>``, a chunked streaming progress endpoint fed by
    :class:`~repro.harness.parallel.SweepStats`, drain and shutdown
    controls.
:mod:`~repro.service.client`
    Blocking stdlib client used by ``repro submit``, the
    ``run_jobs(backend="service")`` route and the CI smoke.
"""

from .client import ServiceClient, ServiceError
from .protocol import ProtocolError, job_from_spec, job_to_spec
from .scheduler import JobScheduler, QueueFullError, SchedulerDraining
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
