"""The asyncio job scheduler behind ``run_jobs(workers=N)`` and the
sweep service.

One :class:`JobScheduler` owns four things:

* an **inflight map** ``job_key -> _Entry``: every submission of a job
  already queued or running *coalesces* onto the first one's future —
  N clients sweeping overlapping grids cost one execution per
  distinct job, not N (``run_jobs`` drops its own repeats before it
  submits);
* a **bounded backlog**: once ``max_backlog`` distinct jobs are pending,
  further submissions raise :class:`QueueFullError` (the HTTP layer
  maps it to 429) instead of growing an unbounded queue;
* a **worker fleet**: asyncio tasks that pull entries off the backlog
  and run them on a shared :class:`~concurrent.futures.
  ProcessPoolExecutor` seeded with the driver's code fingerprint via
  :func:`repro.harness.parallel._pool_init`, so results land under the
  same cache keys a serial sweep uses;
* the **failure policy**: per-attempt timeout, retry budget, and
  exponential backoff from :class:`~repro.harness.parallel.
  HarnessPolicy` — a crashed or wedged pool is killed and respawned,
  the victim charged one retry, innocent pool-mates requeued for free.

With a :class:`~repro.harness.store.ResultStore` the scheduler answers
repeats from it and stores each result as it lands (``repro serve``).
With ``store=None`` a result lives only in its future: that is how
:func:`~repro.harness.parallel.run_jobs` runs a pool sweep, probing and
flushing its own cache.

Jobs that :func:`~repro.harness.slices.sliceable` approves run in
bounded cycle slices with a checkpoint between slices.  That checkpoint
is what makes preemption cheap everywhere it appears:

* a **timeout or pool crash** mid-job retries *from the last completed
  slice*, not from cycle zero;
* :meth:`JobScheduler.drain_workers` retires fleet members gracefully —
  each finishes its current slice, requeues the job *with its
  checkpoint*, and exits, so the job resumes on another worker without
  losing cycles (checkpoint migration);
* :meth:`JobScheduler.begin_drain` stops intake (submissions raise
  :class:`SchedulerDraining`) while the backlog runs dry for a clean
  shutdown.

Everything is accounted in a :class:`~repro.harness.parallel.
SweepStats` (plus the store's own counters), surfaced through
:meth:`JobScheduler.progress` for the streaming endpoint.
"""

from __future__ import annotations

import asyncio
import functools
import logging
from dataclasses import dataclass, field

from .jobs import Job, run_job
from .parallel import (
    HarnessPolicy,
    SweepError,
    SweepStats,
    _pool_init,
    code_fingerprint,
    job_key,
)
from .slices import run_job_slice, sliceable
from .store import ResultStore

_LOG = logging.getLogger("repro.harness.scheduler")

#: default cycle budget per slice; big enough that slicing overhead
#: (machine rebuild + snapshot) stays negligible, small enough that
#: drain and timeout react within one slice
DEFAULT_SLICE_CYCLES = 100_000


def _kill_pool(pool) -> None:
    """Tear a pool down without waiting on wedged workers."""
    processes = dict(getattr(pool, "_processes", None) or {})
    for proc in processes.values():
        if proc.is_alive():
            proc.kill()
    pool.shutdown(wait=False, cancel_futures=True)


class QueueFullError(RuntimeError):
    """The scheduler backlog is at capacity; resubmit later (HTTP 429)."""


class SchedulerDraining(RuntimeError):
    """The scheduler is draining and accepts no new jobs (HTTP 503)."""


@dataclass
class _Entry:
    """One distinct job in flight; every coalesced submission shares
    :attr:`future`."""

    key: str
    job: Job
    future: asyncio.Future
    attempts: int = 0
    waiters: int = 1          #: submissions coalesced onto this entry
    state: dict | None = None  #: latest slice checkpoint (migratable)
    cycle: int = 0            #: simulated cycles completed so far
    running: bool = False     #: picked up by a worker (vs backlogged)


@dataclass
class JobScheduler:
    """Coalescing, backpressured scheduler over a process-pool fleet."""

    store: ResultStore | None  #: ``None``: results live in futures only
    workers: int = 2  #: fleet size, and the process pool's width
    max_backlog: int = 256
    policy: HarnessPolicy = field(default_factory=HarnessPolicy)
    slice_cycles: int = DEFAULT_SLICE_CYCLES
    stats: SweepStats = field(default_factory=SweepStats)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.max_backlog < 1:
            raise ValueError("max_backlog must be >= 1")
        if self.slice_cycles < 1:
            raise ValueError("slice_cycles must be >= 1")
        self._queue: asyncio.Queue[_Entry] = asyncio.Queue()
        self._inflight: dict[str, _Entry] = {}
        self._failed: dict[str, str] = {}  #: key -> terminal error text
        self._tasks: list[asyncio.Task] = []
        self._pool = None
        self._pool_gen = 0
        self._draining = False
        self._drain_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle ---------------------------------------------------------

    def _new_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_pool_init,
            initargs=(self.policy.inject, code_fingerprint()),
        )

    async def start(self) -> None:
        if self._tasks:
            raise RuntimeError("scheduler already started")
        self._pool = self._new_pool()
        for n in range(self.workers):
            self._tasks.append(
                asyncio.create_task(self._worker(n), name=f"worker-{n}")
            )

    async def stop(self) -> None:
        """Hard stop: cancel the fleet and kill the pool.  Unfinished
        entries keep their checkpoints only in memory — callers wanting
        a graceful exit use :meth:`begin_drain` + :meth:`drained`
        first."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        if self._pool is not None:
            _kill_pool(self._pool)
            self._pool = None

    # -- intake ------------------------------------------------------------

    def submit(self, job: Job) -> tuple[str, asyncio.Future, str]:
        """Register one job; returns ``(job_key, future, status)`` where
        status is ``"cached"`` (already in the store), ``"coalesced"``
        (identical job already in flight) or ``"queued"``.

        Raises :class:`SchedulerDraining` during drain and
        :class:`QueueFullError` when the backlog is full; the caller
        decides per-job what a partial rejection means.
        """
        key = job_key(job)
        result = self.store.get(key) if self.store is not None else None
        if result is not None:
            self.stats.hits += 1
            future = asyncio.get_running_loop().create_future()
            future.set_result(result)
            return key, future, "cached"
        entry = self._inflight.get(key)
        if entry is not None:
            entry.waiters += 1
            self.stats.coalesced += 1
            return key, entry.future, "coalesced"
        if self._draining:
            raise SchedulerDraining("scheduler is draining")
        if len(self._inflight) >= self.max_backlog:
            self.stats.rejected += 1
            raise QueueFullError(
                f"backlog full ({self.max_backlog} jobs in flight)"
            )
        entry = _Entry(
            key, job, asyncio.get_running_loop().create_future()
        )
        self._failed.pop(key, None)  # a resubmission retries the job
        self._inflight[key] = entry
        self._idle.clear()
        self._queue.put_nowait(entry)
        return key, entry.future, "queued"

    def future_for(self, key: str) -> asyncio.Future | None:
        """The shared future of an in-flight job key (long-poll waits
        on it), or ``None``."""
        entry = self._inflight.get(key)
        return entry.future if entry is not None else None

    def lookup(self, key: str) -> dict | None:
        """Status of one job key: stored (``{"status": "done"}``), in
        flight (with progress), failed, or ``None``."""
        if key in self.store:
            return {"status": "done"}
        entry = self._inflight.get(key)
        if entry is None:
            error = self._failed.get(key)
            if error is not None:
                return {"status": "failed", "error": error}
            return None
        return {
            "status": "running" if entry.running else "queued",
            "attempts": entry.attempts,
            "waiters": entry.waiters,
            "cycle": entry.cycle,
        }

    # -- drain -------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop accepting new jobs; in-flight work runs to completion."""
        self._draining = True

    async def drained(self) -> None:
        """Wait until every accepted job has resolved."""
        await self._idle.wait()

    def drain_workers(self, count: int = 1) -> int:
        """Retire up to ``count`` fleet workers at their next slice
        boundary; their in-progress jobs are requeued *with their
        checkpoints* and resume on the remaining workers.  At least one
        worker always survives.  Returns the number actually retired."""
        alive = sum(1 for t in self._tasks if not t.done())
        granted = max(0, min(count, alive - 1))
        self._drain_requests += granted
        return granted

    def _take_drain(self) -> bool:
        if self._drain_requests > 0:
            self._drain_requests -= 1
            return True
        return False

    # -- execution ---------------------------------------------------------

    async def _worker(self, n: int) -> None:
        while True:
            entry = await self._queue.get()
            if entry.future.done():  # pragma: no cover - cancelled waiter
                self._finish(entry)
                continue
            entry.running = True
            try:
                migrated = await self._attempt(entry)
            except asyncio.CancelledError:
                entry.running = False
                self._queue.put_nowait(entry)
                raise
            entry.running = False
            if migrated:
                # this worker was asked to drain: hand the checkpointed
                # entry back and leave the fleet
                self._queue.put_nowait(entry)
                _LOG.info(
                    "worker %d drained; requeued %s at cycle %d",
                    n, entry.key[:12], entry.cycle,
                )
                return
            if self._take_drain():
                # atomic jobs cannot be preempted; drain between jobs
                _LOG.info("worker %d drained", n)
                return

    async def _attempt(self, entry: _Entry) -> bool:
        """Run one attempt of ``entry`` to completion, failure, or (for
        a draining worker) a slice boundary.  Returns True when the
        entry was preempted for migration."""
        from concurrent.futures.process import BrokenProcessPool

        loop = asyncio.get_running_loop()
        timeout = self.policy.timeout
        deadline = (
            loop.time() + timeout if timeout is not None else None
        )
        sliced = sliceable(entry.job)
        gen = self._pool_gen
        try:
            while True:
                budget = None
                if deadline is not None:
                    budget = deadline - loop.time()
                    if budget <= 0:
                        raise TimeoutError
                if sliced:
                    call = functools.partial(
                        run_job_slice, entry.job, entry.state,
                        self.slice_cycles,
                    )
                else:
                    call = functools.partial(run_job, entry.job)
                out = await asyncio.wait_for(
                    loop.run_in_executor(self._pool, call), budget
                )
                if not sliced:
                    self._land(entry, out)
                    return False
                if out["done"]:
                    self._land(entry, out["result"])
                    return False
                entry.state = out["state"]
                entry.cycle = out["cycle"]
                if self._take_drain():
                    return True
        except (asyncio.CancelledError, KeyboardInterrupt):
            raise
        except BrokenProcessPool as exc:
            # if another worker already respawned the pool since this
            # attempt started, this job is collateral of that crash:
            # requeue it for free
            if self._pool_gen != gen:
                self._requeue(entry, 0.0)
            else:
                self._respawn(gen)
                self._charge(entry, "lost to a crashed worker", exc)
        except (TimeoutError, asyncio.TimeoutError):
            # a wedged pool process cannot be cancelled; recycle the
            # pool (collateral jobs requeue themselves via the branch
            # above) and charge only this job
            if self._pool_gen == gen:
                self._respawn(gen)
            self._charge(
                entry, f"timed out after {timeout:g}s", None
            )
        except Exception as exc:
            self._charge(entry, f"raised {type(exc).__name__}", exc)
        return False

    def _respawn(self, gen_seen: int) -> None:
        """Kill and rebuild the pool (once per crash: callers race on
        the generation counter, the first wins, the rest see the bump
        and treat their failure as collateral)."""
        if self._pool_gen != gen_seen:  # pragma: no cover - lost race
            return
        self._pool_gen += 1
        _kill_pool(self._pool)
        self._pool = self._new_pool()
        self.stats.respawns += 1
        _LOG.warning("process pool respawned (generation %d)",
                     self._pool_gen)

    def _land(self, entry: _Entry, result: dict) -> None:
        if self.store is not None:
            self.store.put(entry.key, result)
            self.stats.flushed += 1
        self.stats.executed += 1
        if not entry.future.done():
            entry.future.set_result(result)
        self._finish(entry)

    def _charge(self, entry: _Entry, why: str,
                cause: BaseException | None) -> None:
        """One failed execution; fail the future once the retry budget
        is gone, else back off and requeue.  A sliced entry keeps its
        checkpoint, so the retry resumes from the last completed slice."""
        from concurrent.futures.process import BrokenProcessPool

        self.stats.record_failure(
            type(cause).__name__ if cause is not None else "Timeout"
        )
        entry.attempts += 1
        if entry.attempts > self.policy.retries:
            if cause is not None and not isinstance(
                cause, (BrokenProcessPool, TimeoutError)
            ):
                error: BaseException = cause
            else:
                error = SweepError(
                    f"job {entry.key[:12]} failed {entry.attempts} "
                    f"time(s) ({why}) with retries={self.policy.retries}"
                )
                error.__cause__ = cause
            self._failed[entry.key] = f"{type(error).__name__}: {error}"
            if not entry.future.done():
                entry.future.set_exception(error)
                # HTTP waiters poll lookup() rather than awaiting, so
                # mark the exception retrieved to keep asyncio from
                # logging "exception was never retrieved"
                entry.future.exception()
            self._finish(entry)
            return
        self.stats.retried += 1
        _LOG.warning(
            "job %s %s; retry %d/%d", entry.key[:12], why,
            entry.attempts, self.policy.retries,
        )
        delay = 0.0
        if self.policy.backoff:
            delay = self.policy.backoff * (2 ** (entry.attempts - 1))
        self._requeue(entry, delay)

    def _requeue(self, entry: _Entry, delay: float) -> None:
        if delay > 0:
            asyncio.get_running_loop().call_later(
                delay, self._queue.put_nowait, entry
            )
        else:
            self._queue.put_nowait(entry)

    def _finish(self, entry: _Entry) -> None:
        self._inflight.pop(entry.key, None)
        if not self._inflight:
            self._idle.set()

    # -- observability -----------------------------------------------------

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool processes (the smoke test kills one)."""
        if self._pool is None:
            return []
        return sorted(getattr(self._pool, "_processes", None) or {})

    def progress(self) -> dict:
        """One JSON-clean snapshot for ``/v1/stats`` and the streaming
        progress endpoint."""
        running = sum(1 for e in self._inflight.values() if e.running)
        return {
            "sweep": {
                "hits": self.stats.hits,
                "executed": self.stats.executed,
                "flushed": self.stats.flushed,
                "retried": self.stats.retried,
                "respawns": self.stats.respawns,
                "coalesced": self.stats.coalesced,
                "rejected": self.stats.rejected,
                "failures": dict(self.stats.failures),
            },
            "store": {**vars(self.store.stats),
                      "results": len(self.store)},
            "backlog": len(self._inflight) - running,
            "running": running,
            "workers": sum(1 for t in self._tasks if not t.done()),
            "pool_pids": self.worker_pids(),
            "draining": self._draining,
        }
