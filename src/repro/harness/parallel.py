"""Fault-tolerant job fan-out and result caching for the sweep harness.

:func:`run_jobs` is the one entry point: it takes the declarative job
list an experiment built, optionally consults an on-disk result cache,
runs the remaining jobs either serially (the default — deterministic and
dependency-free, what CI uses) or across a :class:`concurrent.futures.
ProcessPoolExecutor`, and returns results in job order.

The cache key binds each result to the *code* as well as the job: a
sha256 over every ``src/repro`` Python source (:func:`code_fingerprint`)
is mixed into the key, so editing the simulator silently invalidates
stale entries instead of serving them.

Crash safety (PR 5):

* **Atomic flushes.**  The cache is a :class:`~repro.harness.store.
  ResultStore`: each entry is written to a temp file in the cache
  directory and ``os.replace``d into place — a kill mid-write can never
  leave a truncated entry under the real key.
* **Corruption quarantine.**  Every probe re-hashes the entry against
  the sha256 on its first line.  A torn, bit-flipped or edited entry is
  treated as a miss, moved aside to ``<key>.result.corrupt`` and logged,
  instead of crashing the sweep or being served.
* **Incremental flushes.**  Results are flushed as each job lands — in
  the pool path via completed-future consumption, not a barrier after
  ``pool.map`` — so a crashed worker or killed driver loses only the
  jobs still in flight; a ``--resume`` rerun skips everything flushed.
* **Timeout / retry / respawn.**  A :class:`HarnessPolicy` adds a
  per-job timeout, bounded retries with exponential backoff, and
  ``BrokenProcessPool`` recovery that respawns the pool and requeues
  only unfinished jobs.  All default off (``retries=0``), preserving
  the seed harness's fail-fast behavior and cost.
* **Fault injection.**  ``policy.inject`` (a
  :class:`repro.harness.faults.FaultSpec`) arms the failure the CI
  smoke wants to prove recovery from; workers receive it through the
  pool initializer.
"""

from __future__ import annotations

import hashlib
import logging
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

from . import faults
from .faults import FaultSpec
from .jobs import Job, run_job
from .store import ResultStore

_SRC_ROOT = Path(__file__).resolve().parent.parent  # src/repro

_LOG = logging.getLogger("repro.harness")

#: how often the pool loop wakes to check per-job deadlines (seconds)
_DEADLINE_POLL = 0.1


class SweepError(RuntimeError):
    """A sweep could not complete within its retry budget."""


@dataclass
class SweepStats:
    """What a sweep did — surfaced by ``repro sweep`` and the tests."""

    hits: int = 0         #: results served from the cache
    executed: int = 0     #: jobs actually simulated
    flushed: int = 0      #: results written to the cache
    retried: int = 0      #: job re-executions (failure or timeout)
    respawns: int = 0     #: process pools rebuilt after a crash/timeout
    quarantined: int = 0  #: corrupt cache entries moved aside
    #: identical concurrent submissions folded onto one execution
    #: (service scheduler only; see :mod:`repro.service`)
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

    #: per-job wall-clock timeout in seconds (pool mode only); ``None``
    #: waits forever.
    timeout: float | None = None
    #: how many times a failed or timed-out job is re-executed.
    retries: int = 0
    #: base of the exponential retry backoff (seconds); retry ``k`` of a
    #: job is held back ``backoff * 2**(k-1)`` before resubmission.  In
    #: pool mode the delay is a per-job not-before timestamp, never a
    #: sleep, so deadline polling keeps its cadence while a job backs
    #: off.
    backoff: float = 0.25
    #: fault to inject (see :mod:`repro.harness.faults`).
    inject: FaultSpec | None = None
    #: base URL of a running ``repro serve`` instance; what
    #: ``run_jobs(backend="service")`` submits to when no explicit
    #: ``service_url`` argument is given.
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
    service_url: str | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    backoff: float | None = None,
    inject: FaultSpec | None = None,
) -> list[dict]:
    """Run ``jobs`` and return their result dicts in the same order.

    ``workers > 1`` fans uncached jobs over a process pool; ``workers=1``
    (the default) runs them in-process, which keeps CI deterministic and
    lets the per-process compilation memoization in :mod:`.jobs` see the
    whole sweep.  ``cache_dir``, when given, is a
    :class:`~repro.harness.store.ResultStore`: each result is persisted
    under its (code fingerprint, job) key, and hits whose digest verifies
    are reused on later runs.

    ``backend="batch"`` routes eligible uncached jobs (see
    :func:`repro.batch.batch_eligible`) through the SoA batch engine in
    the driver process — thousands of timing configurations stepped in
    lockstep — and only the remainder through the scalar path.  Batch
    results are flushed under the same :func:`job_key`, so a cached batch
    sweep and a cached scalar sweep are interchangeable.
    ``batch_workers > 1`` additionally shards the batch lane groups
    across a fingerprint-seeded process pool (one sub-batch per worker,
    split along saturation-class lines); results are flushed to the
    cache as each shard lands, so a killed sweep loses at most the
    in-flight shards.

    ``backend="service"`` submits the uncached jobs to a running
    ``repro serve`` instance (``service_url`` argument, or the ambient
    :attr:`HarnessPolicy.service_url`): the server coalesces identical
    in-flight jobs across clients and serves repeats from its result
    store (:mod:`repro.service`).  Results land in the local
    ``cache_dir`` as they stream back, so a service-backed sweep and a
    local sweep are resume-interchangeable.

    The keyword-only robustness knobs default to the ambient
    :class:`HarnessPolicy` (see :func:`harness_policy` /
    :func:`set_policy`); genuine job exceptions propagate unchanged once
    the retry budget is exhausted.
    """
    if backend not in ("scalar", "batch", "service"):
        raise ValueError(
            f"unknown backend {backend!r}; "
            f"known: 'scalar', 'batch', 'service'"
        )
    policy = _POLICY
    timeout = policy.timeout if timeout is None else timeout
    retries = policy.retries if retries is None else retries
    backoff = policy.backoff if backoff is None else backoff
    inject = policy.inject if inject is None else inject
    service_url = (policy.service_url if service_url is None
                   else service_url)
    stats = policy.stats if policy.stats is not None else SweepStats()

    if inject is not None:
        jobs = faults.apply_to_jobs(jobs, inject)

    results: list[dict | None] = [None] * len(jobs)
    pending: list[int] = []
    store: ResultStore | None = None
    if cache_dir is not None:
        store = ResultStore(cache_dir)
        for i, job in enumerate(jobs):
            entry = store.get(job_key(job))
            if entry is not None:
                results[i] = entry
                stats.hits += 1
            else:
                pending.append(i)
        stats.quarantined += store.stats.quarantined
    else:
        pending = list(range(len(jobs)))

    if pending and backend == "batch" and inject is None:
        from ..batch import run_batch

        batch_jobs = [jobs[i] for i in pending]

        def _land(pos: int, result: dict) -> None:
            i = pending[pos]
            results[i] = result
            stats.executed += 1
            if store is not None:
                _flush(store, job_key(jobs[i]), result, stats, inject)

        try:
            ran = run_batch(
                batch_jobs, workers=batch_workers, on_result=_land
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
            if retries <= 0:
                raise
            stats.retried += 1
            retries -= 1
            _LOG.warning(
                "batch backend failed (%s: %s); falling back to the "
                "scalar path for %d job(s) with %d retrie(s) left",
                type(exc).__name__, exc, len(pending), retries,
            )
        else:
            pending = [
                i for pos, i in enumerate(pending) if pos not in ran
            ]

    if pending and backend == "service" and inject is None:
        from ..service.client import ServiceClient

        if service_url is None:
            raise ValueError(
                "backend='service' needs a service URL (pass "
                "service_url= or set HarnessPolicy.service_url)"
            )
        client = ServiceClient(service_url)

        def _land_remote(pos: int, result: dict) -> None:
            i = pending[pos]
            results[i] = result
            stats.executed += 1
            if store is not None:
                _flush(store, job_key(jobs[i]), result, stats, inject)

        client.run(
            [jobs[i] for i in pending],
            on_result=_land_remote,
            timeout=timeout,
        )
        pending = []

    if pending:
        if workers > 1:
            _run_pool(
                jobs, pending, results, workers, store, stats,
                timeout, retries, backoff, inject,
            )
        else:
            _run_serial(
                jobs, pending, results, store, stats,
                retries, backoff, inject,
            )
    return results  # type: ignore[return-value]


def _run_serial(
    jobs, pending, results, store, stats, retries, backoff, inject
) -> None:
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
                    time.sleep(backoff * (2 ** attempt))
            results[i] = result
            stats.executed += 1
            if store is not None:
                _flush(store, job_key(jobs[i]), result, stats, inject)
    finally:
        if inject is not None:
            faults.install(previous)


def _kill_pool(pool) -> None:
    """Tear a pool down without waiting on wedged workers."""
    processes = dict(getattr(pool, "_processes", None) or {})
    for proc in processes.values():
        if proc.is_alive():
            proc.kill()
    pool.shutdown(wait=False, cancel_futures=True)


def _run_pool(
    jobs, pending, results, workers, store, stats,
    timeout, retries, backoff, inject,
) -> None:
    """Completed-future consumption with per-job deadlines: each result
    is flushed as it lands, a crashed pool is respawned with only the
    unfinished jobs requeued, and a job past its deadline costs one
    retry while its innocent pool-mates are requeued for free."""
    from concurrent.futures import (
        FIRST_COMPLETED,
        ProcessPoolExecutor,
        wait,
    )
    from concurrent.futures.process import BrokenProcessPool

    def new_pool():
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_init,
            initargs=(inject, code_fingerprint()),
        )

    queue = deque(pending)
    attempts = dict.fromkeys(pending, 0)
    #: earliest monotonic time a charged job may be resubmitted — the
    #: retry backoff lives here, at submit time, instead of a sleep in
    #: the completed-future loop (which stalled the _DEADLINE_POLL
    #: cadence and let unrelated in-flight jobs blow their deadlines
    #: unobserved)
    not_before = dict.fromkeys(pending, 0.0)
    pool = new_pool()
    inflight: dict = {}  # future -> (job index, deadline or None)

    def charge(i: int, why: str, cause: BaseException | None) -> None:
        """One failed execution of job ``i``; raises when the retry
        budget is gone."""
        stats.record_failure(
            type(cause).__name__ if cause is not None else "Timeout"
        )
        attempts[i] += 1
        if attempts[i] > retries:
            if cause is not None and not isinstance(
                cause, (BrokenProcessPool, TimeoutError)
            ):
                raise cause  # genuine job failure: propagate unchanged
            raise SweepError(
                f"job {i} failed {attempts[i]} time(s) ({why}) with "
                f"retries={retries}"
            ) from cause
        stats.retried += 1
        _LOG.warning(
            "job %d %s; retry %d/%d", i, why, attempts[i], retries
        )
        if backoff:
            not_before[i] = (
                time.monotonic() + backoff * (2 ** (attempts[i] - 1))
            )
        queue.append(i)

    try:
        while queue or inflight:
            now = time.monotonic()
            for _ in range(len(queue)):
                if len(inflight) >= workers:
                    break
                i = queue.popleft()
                if not_before[i] > now:
                    queue.append(i)  # still backing off: rotate past it
                    continue
                deadline = now + timeout if timeout is not None else None
                try:
                    future = pool.submit(run_job, jobs[i])
                except BrokenProcessPool:
                    # pool died between loop iterations; respawn and
                    # retry the submit on the fresh pool
                    queue.appendleft(i)
                    for other, (j, _deadline) in inflight.items():
                        queue.append(j)
                    inflight.clear()
                    _kill_pool(pool)
                    pool = new_pool()
                    stats.respawns += 1
                    continue
                inflight[future] = (i, deadline)
            if not inflight:
                if queue:
                    # everything queued is backing off; sleep until the
                    # earliest becomes eligible instead of spinning
                    wake = min(not_before[i] for i in queue)
                    time.sleep(max(0.0, wake - time.monotonic()))
                continue
            poll = _DEADLINE_POLL if timeout is not None else None
            if queue and len(inflight) < workers:
                # a queued job is only held back by its backoff window;
                # wake when the earliest becomes submittable
                wake = min(not_before[i] for i in queue)
                delay = max(0.0, wake - time.monotonic())
                poll = delay if poll is None else min(poll, delay)
            done, _ = wait(
                list(inflight),
                timeout=poll,
                return_when=FIRST_COMPLETED,
            )
            # record and flush every success in this wait round *before*
            # touching the failures: charge() raises once a job's retry
            # budget is gone, and the already-completed pool-mates in the
            # same `done` set used to be dropped unrecorded — a --resume
            # rerun then re-executed finished work
            failed = []
            for future in done:
                i, _deadline = inflight.pop(future)
                exc = future.exception()
                if exc is None:
                    result = future.result()
                    results[i] = result
                    stats.executed += 1
                    if store is not None:
                        _flush(
                            store, job_key(jobs[i]), result, stats, inject
                        )
                else:
                    failed.append((i, exc))
            broken = None
            for i, exc in failed:
                if isinstance(exc, BrokenProcessPool):
                    broken = exc
                    charge(i, "lost to a crashed worker", exc)
                else:
                    charge(i, f"raised {type(exc).__name__}", exc)
            if broken is not None or getattr(pool, "_broken", False):
                # every other in-flight job is collateral: requeue
                # without charging a retry
                for future, (i, _deadline) in inflight.items():
                    queue.append(i)
                inflight.clear()
                _kill_pool(pool)
                pool = new_pool()
                stats.respawns += 1
                continue
            if timeout is not None and inflight:
                now = time.monotonic()
                overdue = [
                    (future, i)
                    for future, (i, deadline) in inflight.items()
                    if deadline is not None and now > deadline
                ]
                if overdue:
                    # a wedged worker cannot be cancelled; recycle the
                    # whole pool, charging only the overdue jobs
                    overdue_set = {future for future, _i in overdue}
                    for future, (i, _deadline) in inflight.items():
                        if future not in overdue_set:
                            queue.append(i)
                    inflight.clear()
                    _kill_pool(pool)
                    pool = new_pool()
                    stats.respawns += 1
                    for _future, i in overdue:
                        charge(i, f"timed out after {timeout:g}s", None)
        pool.shutdown(wait=True)
    finally:
        _kill_pool(pool)
