"""The benchmark's three workloads, run by ``child.py`` in a fresh
interpreter per pass.

Each workload class builds its inputs in ``__init__`` (that is the
set-up the parent times), runs unmeasured work in :meth:`warmup`, and
in :meth:`measure` runs its timed phases and then its output gates.
``measure`` returns the pass report the parent aggregates: wall time,
round-trip samples, peak RSS, operations attempted and failed, a
digest of every simulated result, and the counters the per-layer
metrics need.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import threading
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(rec, phase: str):
    return rec.timed(phase) if rec is not None else nullcontext()


def _span(rec, name: str, **attrs):
    return rec.span(name, **attrs) if rec is not None else nullcontext()


class Context:
    """What a pass knows about its run: seed, scratch directory (inside
    the checkout, deleted by the parent) and the checkout root."""

    def __init__(self, seed: int, tmp: Path, root: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.root = root


# ---------------------------------------------------------------------------
# paper-suite
# ---------------------------------------------------------------------------


def expected_tables(path: Path) -> dict[str, str]:
    """The ```text blocks of EXPERIMENTS.md, keyed by experiment id."""
    blocks = re.findall(r"^```text\n(.*?)\n```$", path.read_text(),
                        re.S | re.M)
    return {block[1:block.index("]")]: block for block in blocks}


class PaperSuite:
    """All of ``repro experiment all`` at paper sizes, serially, default
    backend, no result cache, each experiment followed by replays
    against a result cache the warm-up filled.  No seed: the suite is
    fixed by definition."""

    #: cached replays of the whole suite per pass
    REPLAYS = 5

    def __init__(self, ctx: Context) -> None:
        import repro.harness.experiments as experiments
        import repro.harness.parallel as parallel

        self.experiments = experiments
        self.parallel = parallel
        self.ids = list(experiments.EXPERIMENTS)
        self.expected = expected_tables(ctx.root / "EXPERIMENTS.md")
        self.cache = str(ctx.tmp / "result-cache")

    def warmup(self) -> None:
        for eid in self.ids:
            self.experiments.run_experiment(eid, cache_dir=self.cache)

    def measure(self, rec) -> dict:
        """Each uncached experiment is followed by its cached replays,
        so both kinds of work spread over the whole pass.  A round-trip
        sample is always one whole suite: the uncached suite is the
        pass's one cold sample, and replay k of every experiment adds
        up to cached sample k."""
        policy = self.parallel.harness_policy
        cold_stats = self.parallel.SweepStats()
        cached_stats = self.parallel.SweepStats()
        cold_s, cached_s = 0.0, [0.0] * self.REPLAYS
        texts = []
        for eid in self.ids:
            with policy(stats=cold_stats), _timed(rec, "cold"):
                t0 = perf_counter()
                table = self.experiments.run_experiment(eid)
                cold_s += perf_counter() - t0
            texts.append((eid, table.to_text()))
            with policy(stats=cached_stats), _timed(rec, "cached"):
                for k in range(self.REPLAYS):
                    t0 = perf_counter()
                    table = self.experiments.run_experiment(
                        eid, cache_dir=self.cache)
                    cached_s[k] += perf_counter() - t0
                    texts.append((eid, table.to_text()))
        rss = own_peak_rss_mb()

        # gate: every table byte-equal to its EXPERIMENTS.md block
        failed = sum(text != self.expected.get(eid) for eid, text in texts)
        if cached_stats.executed:
            failed += 1  # the warm cache must answer every job
        return {
            "wall_s": cold_s, "cold_rt": [cold_s], "cached_rt": cached_s,
            "peak_rss_mb": rss, "attempted": len(texts), "failed": failed,
            "digest": digest(texts),
            "counters": {
                "harness.executed": cold_stats.executed
                + cached_stats.executed,
                "harness.cache_hits": cold_stats.hits + cached_stats.hits,
                "harness.flushed": cold_stats.flushed + cached_stats.flushed,
            },
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# grid-sweep
# ---------------------------------------------------------------------------


class GridSweep:
    """Dense ``run_jobs(backend="batch")`` sweeps, inline, flushed to a
    fresh result cache, each then re-run against it as a resume pass.

    Two grid shapes per (kernel, machine): latency x queue depth, where
    most depths exceed the saturation point so most lanes are served
    from a probe lane, and latency x banks, where every lane is
    simulated.  The seed becomes ``Job.seed`` (the kernel input data).
    """

    KERNELS = ("daxpy", "hydro")
    MACHINES = ("sma", "sma-nostream")
    N = 64
    LATENCIES = tuple(range(2, 66, 4))
    DEPTHS = tuple(range(1, 65, 4))
    BANKS = tuple(range(1, 17))
    #: resume passes per sweep; resume k of every sweep adds up to one
    #: cached round-trip sample
    RESUMES = 3

    def __init__(self, ctx: Context) -> None:
        import repro.batch.cache as batch_cache
        import repro.harness.jobs as jobs
        import repro.harness.parallel as parallel

        self.ctx = ctx
        self.jobs = jobs
        self.parallel = parallel
        self.batch_cache = batch_cache
        self.sweeps = []
        for shape in ("depth", "bank"):
            for kernel in self.KERNELS:
                for machine in self.MACHINES:
                    grid = jobs.BatchJob(
                        kernel, self.N, ctx.seed % 2**31, machine,
                        latencies=self.LATENCIES,
                        queue_depths=self.DEPTHS if shape == "depth"
                        else (8,),
                        bank_counts=self.BANKS if shape == "bank"
                        else (8,),
                    )
                    self.sweeps.append((shape, grid.expand()))
        self.checks = self._checks(random.Random(ctx.seed))

    def _checks(self, rng: random.Random) -> list[int]:
        """Points (indices into the concatenated sweeps) the gate re-runs
        through ``run_job``: a seeded point of every sweep, and in every
        depth sweep also a point the collapse planner serves from its
        probe.  The planner simulates the deepest member of each latency
        as the probe, next to the shallow members; the upper depths
        below it are served from the probe's outcome."""
        served = [i for i, depth in enumerate(self.DEPTHS)
                  if depth > self.DEPTHS[-1] // 2][:-1]
        checks, offset = [], 0
        for shape, joblist in self.sweeps:
            checks.append(offset + rng.randrange(len(joblist)))
            if shape == "depth":
                # expand() orders points latency-major
                lat = rng.randrange(len(self.LATENCIES))
                checks.append(offset + lat * len(self.DEPTHS)
                              + rng.choice(served))
            offset += len(joblist)
        return checks

    def warmup(self) -> None:
        cache = self.ctx.tmp / f"warmup-{os.getpid()}"
        for shape in ("depth", "bank"):
            joblist = next(j for s, j in self.sweeps if s == shape)
            for _ in range(2):
                self.parallel.run_jobs(joblist, cache_dir=str(cache),
                                       backend="batch")
        shutil.rmtree(cache)

    def measure(self, rec) -> dict:
        """Each sweep runs cold, flushing to a fresh cache, and is then
        resumed against it, so both kinds of work spread over the whole
        pass.  A round-trip sample is always the whole grid: the cold
        sweeps add up to the pass's one cold sample, and resume k of
        every sweep adds up to cached sample k."""
        cache = str(self.ctx.tmp / f"cache-{os.getpid()}")
        policy = self.parallel.harness_policy
        cold_stats = self.parallel.SweepStats()
        resume_stats = self.parallel.SweepStats()
        compile_before = vars(self.batch_cache.stats).copy()

        def sweep(shape, joblist, phase, stats):
            with policy(stats=stats), _timed(rec, phase), \
                    _span(rec, "bench.sweep", shape=shape):
                t0 = perf_counter()
                results = self.parallel.run_jobs(
                    joblist, cache_dir=cache, backend="batch",
                    batch_workers=1,
                )
                return results, perf_counter() - t0

        cold, resumed = [], [[] for _ in range(self.RESUMES)]
        cold_s, resume_s = 0.0, [0.0] * self.RESUMES
        for shape, joblist in self.sweeps:
            results, seconds = sweep(shape, joblist, "cold", cold_stats)
            cold.append(results)
            cold_s += seconds
            for k in range(self.RESUMES):
                results, seconds = sweep(shape, joblist, "resume",
                                         resume_stats)
                resumed[k].append(results)
                resume_s[k] += seconds
        # one cold pass and one resume pass, as a user runs them
        wall = cold_s + sum(resume_s) / self.RESUMES
        compile_after = vars(self.batch_cache.stats)
        rss = own_peak_rss_mb()

        # gates: the resume pass is all cache hits and equals the cold
        # pass; seeded points re-run through run_job match exactly
        points = [(job, result)
                  for (_shape, joblist), results in zip(self.sweeps, cold)
                  for job, result in zip(joblist, results)]
        cold_text = [canonical(r) for _job, r in points]
        bad = set()
        for sweeps in resumed:
            again = [canonical(r) for results in sweeps for r in results]
            bad.update(i for i, (a, b) in enumerate(zip(cold_text, again))
                       if a != b)
        if resume_stats.executed or \
                resume_stats.hits != len(points) * self.RESUMES:
            bad.add(-1)
        for i in self.checks:
            job, result = points[i]
            if canonical(self.jobs.run_job(job)) != canonical(result):
                bad.add(i)
        shutil.rmtree(cache)
        return {
            "wall_s": wall, "cold_rt": [cold_s], "cached_rt": resume_s,
            "peak_rss_mb": rss, "attempted": len(points),
            "failed": len(bad), "digest": digest([r for _j, r in points]),
            "counters": {
                "harness.executed": cold_stats.executed
                + resume_stats.executed,
                "harness.cache_hits": cold_stats.hits + resume_stats.hits,
                "harness.flushed": cold_stats.flushed
                + resume_stats.flushed,
                "batch.compiles": compile_after["compiles"]
                - compile_before["compiles"],
                "batch.compile_hits": compile_after["hits"]
                - compile_before["hits"],
                "batch.unsupported": compile_after["unsupported"]
                - compile_before["unsupported"],
            },
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc (MiB)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServiceMix:
    """A ``repro serve --workers 1`` subprocess on a fresh store, driven
    by two closed-loop client threads.

    Each client replays its own seeded stream of slices (the ``sma`` and
    ``scalar`` jobs of one kernel and config, ``check=True``): every
    (kernel, latency, depth) combination once as a slice new to the
    store, some of them submitted with every job twice so the copies
    coalesce, interleaved with repeats of the client's own completed
    slices, which the store answers.  Clients use disjoint job seeds, so
    the seed fixes each round trip's class, never timing.

    The repeat share is the suite's own: ``repro experiment all``
    submits 409 jobs, of which 111 (27%) repeat an earlier experiment's
    job, and 28 of a client's 103 slices (27%) are repeats.  The share
    of duplicated slices has no such measurement behind it.
    """

    KERNELS = ("daxpy", "hydro", "first_diff", "state_eqn",
               "inner_product")
    LATENCIES = (8, 16, 32)
    DEPTHS = (1, 2, 4, 8, 16)
    N = 48
    #: new slices submitted with duplicated jobs, per client (unverified)
    DUPLICATED = 15
    #: repeats of completed slices, per client: 27% of all slices
    REPEATS = 28
    CLIENTS = 2
    #: long-poll cap per GET /v1/jobs/<key>?wait=
    POLL = 30.0

    def __init__(self, ctx: Context) -> None:
        import repro.config as config
        import repro.harness.jobs as jobs
        from repro.service.client import ServiceClient, ServiceError

        self.ctx = ctx
        self.config = config
        self.jobs = jobs
        self.client_cls = ServiceClient
        self.service_error = ServiceError
        base = ctx.seed * 1_000_003 % 2**31
        self.streams = [self._stream(base, c) for c in range(self.CLIENTS)]
        self.warm_slice = self._slice("daxpy", 8, 8, base + 2 * 10**6)
        self.store = ctx.tmp / f"store-{os.getpid()}"
        self.server = None
        self._start_server()
        # warm-up round trip: the pool process exists before timing
        if self._round_trip(self.client, self.warm_slice, None)[1] \
                != "cold":
            raise RuntimeError("warm-up slice was not executed")

    def _slice(self, kernel, latency, depth, job_seed) -> list:
        """One R-F1/R-F2-style point: the experiments' configuration
        convention (bank busy = latency / 2, the four main queues at one
        depth) on both machines."""
        cfg = self.config
        memory = cfg.MemoryConfig(latency=latency,
                                  bank_busy=max(1, latency // 2))
        queues = cfg.QueueConfig(
            load_queue_depth=depth, store_data_depth=depth,
            store_addr_depth=depth, index_queue_depth=depth,
        )
        return [
            self.jobs.Job("sma", kernel, self.N, job_seed, check=True,
                          sma_config=cfg.SMAConfig(memory=memory,
                                                   queues=queues)),
            self.jobs.Job("scalar", kernel, self.N, job_seed, check=True,
                          scalar_config=cfg.ScalarConfig(memory=memory)),
        ]

    def _stream(self, base: int, client: int) -> list:
        """``[(expected class, jobs to submit), ...]`` for one client."""
        rng = random.Random(f"{self.ctx.seed}-{client}")
        combos = [(k, lat, d) for k in self.KERNELS
                  for lat in self.LATENCIES for d in self.DEPTHS]
        rng.shuffle(combos)
        duplicated = set(rng.sample(range(len(combos)), self.DUPLICATED))
        kinds = ["new"] * len(combos) + ["repeat"] * self.REPEATS
        rng.shuffle(kinds)
        kinds.remove("new")
        kinds.insert(0, "new")  # a repeat needs a completed slice
        stream, done = [], []
        for kind in kinds:
            if kind == "repeat":
                stream.append(("cached", rng.choice(done)))
                continue
            i = len(done)
            jobs = self._slice(*combos[i], base + 2 * i + client)
            done.append(jobs)
            stream.append(("cold", jobs + jobs if i in duplicated
                           else jobs))
        return stream

    def _start_server(self) -> None:
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", str(self.store), "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = self.server.stdout.readline()
        if "http://" not in line:
            raise RuntimeError(f"server did not announce a URL: {line!r}")
        self.url = line.split()[-1]
        self.client = self.client_cls(self.url)
        if not self.client.healthz():
            raise RuntimeError("server failed /v1/healthz")

    def _round_trip(self, client, jobs, rec, rt_id=None):
        """Submit one slice and collect every result; returns
        ``(seconds, class, {job repr: result})``."""
        with _span(rec, "bench.rt", rt=rt_id):
            t0 = perf_counter()
            statuses = client.submit(jobs)
            results = {}
            for job, status in zip(jobs, statuses):
                if status["status"] not in ("cached", "coalesced",
                                            "queued"):
                    raise self.service_error(f"job {status['status']}")
                if repr(job) in results:
                    continue
                while True:
                    state = client.job_status(status["key"],
                                              wait=self.POLL)
                    if state is None or state["status"] == "failed":
                        raise self.service_error(f"job failed: {state}")
                    if state["status"] == "done" and "result" in state:
                        results[repr(job)] = state["result"]
                        break
            seconds = perf_counter() - t0
        cached = all(s["status"] == "cached" for s in statuses)
        return seconds, "cached" if cached else "cold", results

    def _reference_path(self) -> Path:
        return self.ctx.tmp / "reference.json"

    def warmup(self) -> None:
        """Reference digests of every streamed job through the
        in-process ``run_job`` path, for the result gate."""
        reference = {}
        for stream in self.streams:
            for _kind, jobs in stream:
                for job in jobs:
                    if repr(job) not in reference:
                        reference[repr(job)] = digest(self.jobs.run_job(job))
        self._reference_path().write_text(json.dumps(reference))

    def _server_stats(self) -> dict:
        stats = self.client.stats()
        return {
            "service.executed": stats["sweep"]["executed"],
            "service.hits": stats["sweep"]["hits"],
            "service.coalesced": stats["sweep"]["coalesced"],
            "service.rejected": stats["sweep"]["rejected"],
            "service.retried": stats["sweep"]["retried"],
            "service.store_puts": stats["store"]["puts"],
            "service.store_gets": stats["store"]["gets"],
            "pool_pids": stats["pool_pids"],
        }

    def measure(self, rec) -> dict:
        before = self._server_stats()
        samples = {"cold": [], "cached": []}
        outcomes: list[list] = [[] for _ in self.streams]

        def run_client(c: int) -> None:
            client = self.client_cls(self.url)
            for i, (expected, jobs) in enumerate(self.streams[c]):
                try:
                    seconds, kind, results = self._round_trip(
                        client, jobs, rec, rt_id=f"{c}-{i}")
                except Exception as exc:  # counted as a failed round trip
                    print(f"round trip {c}-{i} failed: {exc!r}",
                          file=sys.stderr)
                    outcomes[c].append((expected, None, {}))
                    continue
                samples[kind].append(seconds)
                outcomes[c].append((expected, kind, results))

        with _timed(rec, "mix"):
            start = perf_counter()
            threads = [threading.Thread(target=run_client, args=(c,))
                       for c in range(len(self.streams))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = perf_counter() - start
        after = self._server_stats()
        rss = _vm_hwm_mb(self.server.pid) + sum(
            _vm_hwm_mb(pid) for pid in after["pool_pids"])

        # gate: every round trip in its expected class, every result
        # equal to run_job for the same job
        reference = json.loads(self._reference_path().read_text())
        failed, seen = 0, {}
        for outcome in outcomes:
            for expected, kind, results in outcome:
                if kind != expected or any(
                    digest(result) != reference[key]
                    for key, result in results.items()
                ):
                    failed += 1
                    continue
                for key, result in results.items():
                    seen[key] = digest(result)
        counters = {key: after[key] - before[key]
                    for key in after if key.startswith("service.")}
        counters["service.cold_rt_n"] = len(samples["cold"])
        counters["service.cached_rt_n"] = len(samples["cached"])
        return {
            "wall_s": wall, "cold_rt": samples["cold"],
            "cached_rt": samples["cached"], "peak_rss_mb": rss,
            "attempted": sum(map(len, outcomes)), "failed": failed,
            "digest": digest(sorted(seen.items())),
            "counters": counters,
        }

    def close(self) -> None:
        """Drain and stop the server and wait for it; its pool worker
        shares this pass's process group, which run.py reaps.  The store
        goes with the run's scratch directory."""
        if self.server is None:
            return
        try:
            self.client.shutdown()
            self.server.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired,
                self.service_error):
            self.server.kill()
            self.server.wait()
        finally:
            self.server.stdout.close()
        self.server = None


WORKLOADS = {
    "paper-suite": PaperSuite,
    "grid-sweep": GridSweep,
    "service-mix": ServiceMix,
}
