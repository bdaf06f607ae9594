"""Fault-tolerant job fan-out and result caching for the sweep harness.

:func:`run_jobs` is the one entry point: it takes the declarative job
list the requested experiments planned, optionally consults an on-disk
result cache, runs each remaining distinct job once — serially (the
default — deterministic and dependency-free, what CI uses), on a local
:class:`~repro.harness.scheduler.JobScheduler` whose workers share one
process pool, or on a ``repro serve`` instance the ambient
:class:`HarnessPolicy` names — and returns results in job order.  It
and the policy are the only place that decides where jobs run.

The cache key binds each result to the *code* as well as the job: a
sha256 over every ``src/repro`` Python source (:func:`code_fingerprint`)
is mixed into the key, so editing the simulator silently invalidates
stale entries instead of serving them.

Crash safety:

* **Atomic flushes.**  The cache is a :class:`~repro.harness.store.
  ResultStore`: each entry is written to a temp file in the cache
  directory and ``os.replace``d into place — a kill mid-write can never
  leave a truncated entry under the real key.
* **Corruption quarantine.**  Every probe re-hashes the entry against
  the sha256 on its first line.  A torn, bit-flipped or edited entry is
  treated as a miss, moved aside to ``<key>.result.corrupt`` and logged,
  instead of crashing the sweep or being served.
* **Incremental flushes.**  Results are flushed by the calling process
  as each job lands — in the pool path as each scheduler future
  resolves, not at a barrier after the sweep — so a crashed worker or
  killed driver loses only the jobs still in flight, and every landed
  result is flushed before a job out of retries raises its error; a
  ``--resume`` rerun skips everything flushed.
* **Timeout / retry / respawn.**  A :class:`HarnessPolicy` adds a
  per-job timeout, bounded retries with exponential backoff, and
  ``BrokenProcessPool`` recovery.  In pool mode the scheduler applies
  it: a crashed or wedged pool is respawned, only the victim is
  charged a retry (it runs again from its start), and its pool-mates
  are requeued free.  All default off (``retries=0``), preserving the
  seed harness's fail-fast behavior and cost.
* **Fault injection.**  ``policy.inject`` (a
  :class:`repro.harness.faults.FaultSpec`) arms the failure the CI
  smoke wants to prove recovery from; workers receive it through the
  pool initializer.  It fires in the harness, never inside a
  simulation, so no job, key or result differs from a fault-free
  sweep's.
"""

from __future__ import annotations

import hashlib
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from . import faults
from .faults import FaultSpec
from .jobs import Job, _metrics_armed, run_job
from .store import ResultStore

_SRC_ROOT = Path(__file__).resolve().parent.parent  # src/repro

_LOG = logging.getLogger("repro.harness")


class SweepError(RuntimeError):
    """A sweep could not complete within its retry budget."""


@dataclass
class SweepStats:
    """What a sweep did — printed by ``repro experiment`` on stderr."""

    hits: int = 0         #: results served from the cache
    executed: int = 0     #: jobs actually simulated
    flushed: int = 0      #: results written to the cache
    retried: int = 0      #: job re-executions (failure or timeout)
    respawns: int = 0     #: process pools rebuilt after a crash/timeout
    quarantined: int = 0  #: corrupt cache entries moved aside
    #: repeats of a job key within one ``run_jobs`` call, uncached jobs
    #: folded onto a twin that differs only in ``check``, and (in the
    #: service) submissions folded onto an identical in-flight job;
    #: see :mod:`repro.harness.scheduler`
    coalesced: int = 0
    #: submissions bounced by queue backpressure (service scheduler only)
    rejected: int = 0
    #: exception type name -> occurrences, across every charged failure
    #: (serial retries and pool retries/timeouts alike)
    failures: dict[str, int] = field(default_factory=dict)

    def record_failure(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def summary(self) -> str:
        text = (
            f"{self.hits} cached, {self.executed} executed, "
            f"{self.flushed} flushed, {self.retried} retried, "
            f"{self.respawns} pool respawns, "
            f"{self.quarantined} quarantined"
        )
        if self.coalesced or self.rejected:
            text += (f", {self.coalesced} coalesced, "
                     f"{self.rejected} rejected")
        if self.failures:
            kinds = ", ".join(
                f"{name}×{count}"
                for name, count in sorted(self.failures.items())
            )
            text += f" (failures: {kinds})"
        return text


@dataclass(frozen=True)
class HarnessPolicy:
    """Sweep robustness knobs; the defaults reproduce the fail-fast
    seed behavior exactly (no timeout, no retry, no injection)."""

    #: per-job wall-clock timeout in seconds (pool mode only; refused
    #: beside ``service_url``); ``None`` waits forever.
    timeout: float | None = None
    #: how many times a failed or timed-out job is re-executed.
    retries: int = 0
    #: base of the exponential retry backoff (seconds); retry ``k`` of a
    #: job is held back ``backoff * 2**(k-1)`` before resubmission.  In
    #: pool mode the scheduler requeues the job after the delay instead
    #: of sleeping, so other jobs keep running while it backs off.
    backoff: float = 0.25
    #: fault to inject (see :mod:`repro.harness.faults`).
    inject: FaultSpec | None = None
    #: base URL of a running ``repro serve`` instance; when set,
    #: :func:`run_jobs` sends every uncached job in the policy's scope
    #: there (``repro experiment --url`` sets it), and refuses an armed
    #: fault, a ``timeout``, ``retries``, ``workers > 1`` or
    #: ``backend="batch"`` beside it.
    service_url: str | None = None
    #: shared stats sink; ``run_jobs`` accumulates into it when set.
    stats: SweepStats | None = field(default=None, compare=False)


_POLICY = HarnessPolicy()


def set_policy(policy: HarnessPolicy) -> HarnessPolicy:
    """Install the ambient sweep policy; returns the previous one."""
    global _POLICY
    previous = _POLICY
    _POLICY = policy
    return previous


@contextmanager
def harness_policy(**kwargs):
    """Scoped policy override::

        with harness_policy(retries=2, timeout=60.0) as stats:
            run_experiment("R-F1", jobs=4, cache_dir=cache)
    """
    policy = HarnessPolicy(**kwargs)
    if policy.stats is None:
        policy = replace(policy, stats=SweepStats())
    previous = set_policy(policy)
    try:
        yield policy.stats
    finally:
        set_policy(previous)


_FINGERPRINT: str | None = None


def code_fingerprint(refresh: bool = False) -> str:
    """sha256 over every Python source under ``src/repro`` (sorted paths),
    identifying the simulator version for the result cache.

    Computed once per process and cached; ``refresh=True`` forces a
    rescan (long-lived drivers call this after sources change — the old
    ``lru_cache`` could never be refreshed, so such drivers kept writing
    cache entries under a stale key).  Pool workers never compute it at
    all: the driver seeds their cache through the pool initializer
    (:func:`_pool_init`).
    """
    global _FINGERPRINT
    if _FINGERPRINT is None or refresh:
        digest = hashlib.sha256()
        for path in sorted(_SRC_ROOT.rglob("*.py")):
            digest.update(str(path.relative_to(_SRC_ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def _pool_init(inject: FaultSpec | None, fingerprint: str) -> None:
    """Worker-process initializer: arm fault injection and seed the
    code-fingerprint cache with the driver's value, so workers skip the
    full source rescan (and always agree with the driver's keys)."""
    global _FINGERPRINT
    _FINGERPRINT = fingerprint
    faults.install(inject)


def job_key(job: Job) -> str:
    """Stable cache key for one job under the current code version."""
    payload = code_fingerprint() + "\0" + repr(job)
    return hashlib.sha256(payload.encode()).hexdigest()


def _flush(
    store: ResultStore,
    key: str,
    result: dict,
    stats: SweepStats,
    inject: FaultSpec | None,
) -> None:
    """Persist one result and fire the flush-time fault hooks."""
    path = store.put(key, result)
    stats.flushed += 1
    faults.after_flush(inject, path, stats.flushed)


def run_jobs(
    jobs: Sequence[Job],
    workers: int = 1,
    cache_dir: str | Path | None = None,
    *,
    backend: str = "scalar",
    batch_workers: int = 1,
) -> list[dict]:
    """Run ``jobs`` and return their result dicts in the same order.

    This function and the ambient :class:`HarnessPolicy` (see
    :func:`harness_policy` / :func:`set_policy`) are the one place that
    decides where a sweep's jobs run: :func:`~repro.harness.
    experiments.run_suite` passes only ``workers`` and ``cache_dir``
    through.  Each job's key (:func:`job_key`) is computed once, and
    each distinct key runs once on every route: a repeat gets the
    first job's result and counts in :attr:`SweepStats.coalesced`.
    So does an uncached job that differs from another only in
    ``check``: the pair runs once, checked, and the result is kept and
    flushed under both keys (a failed check fails both).
    ``cache_dir``, when given, is a
    :class:`~repro.harness.store.ResultStore`: each result is persisted
    under its key, and hits whose digest verifies are reused on later
    runs.  The uncached jobs run

    * on a running ``repro serve`` instance when the policy sets
      :attr:`HarnessPolicy.service_url` (``repro experiment --url``
      does): the server coalesces identical in-flight jobs across
      clients, serves
      repeats from its result store and applies its own per-job
      timeout and retries (:mod:`repro.service`).  Results land in the
      local ``cache_dir`` as they stream back, so a service sweep and a
      local sweep are resume-interchangeable;
    * otherwise, with ``workers > 1``, on a local
      :class:`~repro.harness.scheduler.JobScheduler` with ``workers``
      workers sharing one process pool, each attempt one
      :func:`~repro.harness.jobs.run_job` call;
    * otherwise in-process (``workers=1``, the default), which keeps CI
      deterministic and lets the per-process compilation memoization in
      :mod:`.jobs` see the whole sweep.

    ``backend="batch"`` first routes eligible uncached jobs (see
    :func:`repro.batch.batch_eligible`) through the SoA batch engine in
    the driver process — thousands of timing configurations stepped in
    lockstep — and only the remainder down the local paths above.
    Batch results are flushed under the same :func:`job_key`, so a
    cached batch sweep and a cached scalar sweep are interchangeable.
    ``batch_workers > 1`` additionally shards the batch lane groups
    across a fingerprint-seeded process pool (one sub-batch per worker,
    split along saturation-class lines); results are flushed to the
    cache as each shard lands, so a killed sweep loses at most the
    in-flight shards.  The engine pays only on lane groups of hundreds
    of configs of one kernel, as ``repro batch`` builds them.

    A policy setting the chosen route would drop is a ``ValueError``,
    raised before the cache is probed: a fault armed for the batch
    engine or the service (neither runs this sweep's fault hooks), a
    per-job timeout on the service route (the server times each job
    with its own ``repro serve --timeout``), ``backend="batch"`` on
    the service route, and on the service route the policy's
    ``retries`` (the server applies its own ``repro serve --retries``)
    and ``workers > 1``.  So is an armed RunReport capture
    (:func:`repro.metrics.capture_reports`) beside ``cache_dir``,
    ``workers > 1`` or a service URL: a cache hit yields no report and a
    captured result would be filed under the key a plain run reads, and
    pool workers and the server fill no collector in this process.
    Genuine job exceptions propagate unchanged once the policy's retry
    budget is exhausted.
    """
    if backend not in ("scalar", "batch"):
        raise ValueError(
            f"unknown backend {backend!r}; known: 'scalar', 'batch'"
        )
    policy = _POLICY
    _refuse_dropped_settings(policy, backend, workers)
    _refuse_lost_reports(policy, workers, cache_dir)
    stats = policy.stats if policy.stats is not None else SweepStats()
    inject = policy.inject

    keys = [job_key(job) for job in jobs]
    first: dict[str, int] = {}  # job key -> index of its first job
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    stats.coalesced += len(jobs) - len(first)
    results: list[dict | None] = [None] * len(jobs)
    pending = list(first.values())
    store: ResultStore | None = None
    if cache_dir is not None:
        store = ResultStore(cache_dir)
        for i in pending:
            results[i] = store.get(keys[i])
        stats.hits += sum(results[i] is not None for i in pending)
        stats.quarantined += store.stats.quarantined
        pending = [i for i in pending if results[i] is None]

    # jobs that differ only in ``check`` simulate the same thing: each
    # such group runs once, checked if any member asks for it
    twins: dict[int, list[int]] = {}
    if len({jobs[i].check for i in pending}) > 1:
        pending, twins = _fold_check_twins(jobs, pending)
        stats.coalesced += sum(map(len, twins.values()))

    def keep(i: int, result: dict) -> None:
        """Hold (and flush) one execution's result for job ``i`` and
        every twin folded onto it."""
        for j in (i, *twins.get(i, ())):
            results[j] = result
            if store is not None:
                _flush(store, keys[j], result, stats, inject)

    def land(i: int, result: dict) -> None:
        stats.executed += 1
        keep(i, result)

    def land_pending(pos: int, result: dict) -> None:
        land(pending[pos], result)

    if pending and backend == "batch":
        from ..batch import run_batch

        try:
            ran = run_batch(
                [jobs[i] for i in pending], workers=batch_workers,
                on_result=land_pending,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            # a shard failure (e.g. BrokenProcessPool from a batch
            # worker) goes through the same charging path as the scalar
            # pool: record the failure kind, and with retries left fall
            # back to the scalar path — which carries the full
            # timeout/retry policy — for whatever has not landed yet
            stats.record_failure(type(exc).__name__)
            pending = [i for i in pending if results[i] is None]
            if policy.retries <= 0:
                raise
            stats.retried += 1
            policy = replace(policy, retries=policy.retries - 1)
            _LOG.warning(
                "batch backend failed (%s: %s); falling back to the "
                "scalar path for %d job(s) with %d retrie(s) left",
                type(exc).__name__, exc, len(pending), policy.retries,
            )
        else:
            pending = [
                i for pos, i in enumerate(pending) if pos not in ran
            ]

    if pending and policy.service_url is not None:
        from ..service.client import ServiceClient

        with ServiceClient(policy.service_url) as client:
            client.run([jobs[i] for i in pending], on_result=land_pending)
    elif pending and workers > 1:
        _run_scheduled(jobs, keys, pending, keep, workers, stats, policy)
    elif pending:
        _run_serial(jobs, pending, land, stats, policy)
    return [results[first[key]] for key in keys]


def _refuse_dropped_settings(
    policy: HarnessPolicy, backend: str, workers: int
) -> None:
    """Raise ``ValueError`` for a policy setting or a ``workers`` count
    that the route :func:`run_jobs` takes would silently drop."""
    url = policy.service_url
    if policy.inject is not None and (backend == "batch" or url is not None):
        where = ("backend='batch'" if backend == "batch"
                 else f"the service at {url}")
        raise ValueError(
            f"{where} cannot inject the fault {policy.inject.mode!r}: "
            "it runs the jobs outside this sweep's fault hooks; drop "
            "the fault or run the sweep in this process on the default "
            "backend"
        )
    if url is not None and policy.timeout is not None:
        raise ValueError(
            f"the service at {url} cannot take a per-job timeout of "
            f"{policy.timeout:g}s from this sweep: the server times each "
            "job with its own 'repro serve --timeout'"
        )
    if url is not None and backend == "batch":
        raise ValueError(
            "backend='batch' runs jobs in this process, but the policy "
            f"sends every job to the service at {url}; drop one of them"
        )
    if url is not None and policy.retries > 0:
        raise ValueError(
            f"the service at {url} cannot take {policy.retries} "
            "retrie(s) from this sweep: the server retries each job "
            "with its own 'repro serve --retries'"
        )
    if url is not None and workers > 1:
        raise ValueError(
            f"workers={workers} runs jobs on a local pool, but the "
            f"policy sends every job to the service at {url}; drop one "
            "of them"
        )


def _refuse_lost_reports(
    policy: HarnessPolicy, workers: int, cache_dir: str | Path | None
) -> None:
    """Raise ``ValueError`` when an armed RunReport capture would lose
    reports on the route :func:`run_jobs` takes, or misfile results."""
    if not _metrics_armed():
        return
    if cache_dir is not None:
        raise ValueError(
            f"an armed RunReport capture cannot use the cache {cache_dir}: "
            "a cache hit yields no report, and a captured result carries "
            "report fields under the key a plain run reads"
        )
    if workers > 1:
        raise ValueError(
            f"an armed RunReport capture cannot see workers={workers}: "
            "pool processes add their reports to their own copy of the "
            "collector"
        )
    if policy.service_url is not None:
        raise ValueError(
            "an armed RunReport capture cannot see the jobs the service "
            f"at {policy.service_url} runs"
        )


def _run_serial(jobs, pending, land, stats, policy) -> None:
    """Run ``pending`` one by one in this process under ``policy``'s
    retries, backoff and fault, handing each result to ``land``."""
    inject = policy.inject
    retries = policy.retries
    previous = faults.install(inject) if inject is not None else None
    try:
        for i in pending:
            for attempt in range(retries + 1):
                try:
                    result = run_job(jobs[i])
                    break
                except (KeyboardInterrupt, SystemExit):
                    # never burn a retry on the user (or the test
                    # harness) aborting the sweep
                    raise
                except Exception as exc:
                    stats.record_failure(type(exc).__name__)
                    if attempt >= retries:
                        raise
                    stats.retried += 1
                    _LOG.warning(
                        "job %d failed (%s: %s); retry %d/%d",
                        i, type(exc).__name__, exc, attempt + 1, retries,
                    )
                    time.sleep(policy.backoff * (2 ** attempt))
            land(i, result)
    finally:
        if inject is not None:
            faults.install(previous)


def _fold_check_twins(jobs, pending) -> tuple[list[int], dict]:
    """Group the ``pending`` job indices by the job's ``check=False``
    form: ``check`` only verifies outputs, never changes a result.
    Returns the index to run for each group (its first checked member,
    else its first) and a mapping from each of those to the group's
    other members."""
    groups: dict[Job, list[int]] = {}
    for i in pending:
        groups.setdefault(replace(jobs[i], check=False), []).append(i)
    runs, twins = [], {}
    for members in groups.values():
        run = next((i for i in members if jobs[i].check), members[0])
        runs.append(run)
        others = [i for i in members if i != run]
        if others:
            twins[run] = others
    return runs, twins


def _run_scheduled(jobs, keys, pending, keep, workers, stats,
                   policy) -> None:
    """Run ``pending`` (distinct jobs) on a local
    :class:`~.scheduler.JobScheduler` without a store, handing each
    result to ``keep`` (which flushes it) as its future resolves.
    ``keys[i]`` is ``jobs[i]``'s :func:`job_key`, handed to the
    scheduler so no job is hashed twice."""
    import asyncio

    from .scheduler import JobScheduler

    async def sweep() -> None:
        scheduler = JobScheduler(
            None, workers=workers, max_backlog=len(pending),
            policy=policy, stats=stats,
        )
        await scheduler.start()
        try:
            waiting = {}  # future -> job index
            for i in pending:
                _key, future, _status = scheduler.submit(jobs[i], keys[i])
                waiting[future] = i
            while waiting:
                done, _ = await asyncio.wait(
                    waiting, return_when=asyncio.FIRST_COMPLETED
                )
                # flush every landed result before raising a failure,
                # so a --resume rerun does not re-execute finished work
                failed = {}  # job index -> its terminal error
                for future in done:
                    i = waiting.pop(future)
                    if future.exception() is not None:
                        failed[i] = future.exception()
                        continue
                    keep(i, future.result())
                if failed:
                    raise failed[min(failed)]
        finally:
            await scheduler.stop()

    try:
        asyncio.get_running_loop()
    except RuntimeError:  # the usual case: no event loop in this thread
        asyncio.run(sweep())
        return
    # called from a coroutine (a notebook cell, say): asyncio.run cannot
    # nest, so the sweep's own loop runs on a helper thread
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as helper:
        helper.submit(asyncio.run, sweep()).result()
