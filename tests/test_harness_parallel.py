"""The job layer and parallel/cached sweep harness.

Covers: job execution for every machine kind, serial vs process-pool
equality (results must not depend on ``--jobs``), the on-disk result
cache (hits round-trip exactly, keys bind to the code version), and the
experiments' declarative job lists feeding identical tables through
either path.
"""

import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    MemoryConfig,
    PrefetchConfig,
    QueueConfig,
    ScalarConfig,
    SMAConfig,
    SpeculationConfig,
)
from repro.harness import experiments as exp
from repro.harness import jobs as jobs_module
from repro.harness import parallel
from repro.harness.jobs import BatchJob, Job, run_job
from repro.harness.parallel import (
    code_fingerprint,
    harness_policy,
    job_key,
    run_jobs,
)
from repro.harness.store import SUFFIX, ResultStore

SMA_CFG, SCALAR_CFG = exp._configs(latency=8)


def _jobs():
    return [
        Job("sma", "daxpy", 32, sma_config=SMA_CFG, check=True),
        Job("scalar", "daxpy", 32, scalar_config=SCALAR_CFG, check=True),
        Job("sma-nostream", "hydro", 32, sma_config=SMA_CFG),
        Job("vector", "daxpy", 32, memory_config=SCALAR_CFG.memory),
        Job("vector", "tridiag", 32, memory_config=SCALAR_CFG.memory),
    ]


class TestJobs:
    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError, match="unknown job machine"):
            Job("warp-drive", "daxpy")

    @pytest.mark.parametrize("field, value", [
        ("n", 0), ("n", -5), ("n", 2.5), ("n", "64"), ("n", True),
        ("seed", "x"), ("seed", 1.5), ("check", "yes"), ("check", 1),
        ("nodes", 0), ("nodes", "2"), ("buckets", 0), ("buckets", None),
    ])
    def test_bad_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"job {field} must be"):
            Job("sma", "daxpy", **{field: value})

    def test_numpy_fields_accepted(self):
        job = Job("cluster", "daxpy", np.int64(32), seed=np.int32(7),
                  nodes=np.int64(2), buckets=np.uint8(4))
        assert job == Job("cluster", "daxpy", 32, seed=7, nodes=2,
                          buckets=4)

    def test_sma_job_reports_lowering_info(self):
        res = run_job(Job("sma", "daxpy", 32, sma_config=SMA_CFG))
        assert res["cycles"] > 0
        assert res["load_streams"] >= 2  # x and y streams
        assert res["memory_reads"] > 0

    def test_vector_job_reports_fallback(self):
        ok = run_job(Job("vector", "daxpy", 32))
        assert ok["vectorized"] is True and ok["cycles"] > 0
        rejected = run_job(Job("vector", "tridiag", 32))
        assert rejected["vectorized"] is False
        assert rejected["reason"]

    def test_cluster_job(self):
        res = run_job(
            Job("cluster", "daxpy", 32, sma_config=SMA_CFG, check=True,
                nodes=2)
        )
        assert len(res["node_cycles"]) == 2
        assert res["mean_slowdown"] >= 1.0

    def test_occupancy_job(self):
        res = run_job(
            Job("sma-occupancy", "daxpy", 64, sma_config=SMA_CFG,
                buckets=8)
        )
        assert res["cycles"] > 0
        assert res["load"] and res["store"]

    def test_check_catches_divergence(self, monkeypatch):
        from repro.harness import jobs as jobs_mod

        real = jobs_mod._reference.__wrapped__

        def poisoned(name, n, seed):
            golden = dict(real(name, n, seed))
            first = next(iter(golden))
            golden[first] = golden[first] + 1.0
            return golden

        monkeypatch.setattr(jobs_mod, "_reference", poisoned)
        with pytest.raises(AssertionError, match="diverges"):
            run_job(Job("sma", "daxpy", 32, sma_config=SMA_CFG,
                        check=True))

    def test_results_are_json_serializable(self):
        for job in _jobs():
            json.dumps(run_job(job))


class TestRunJobs:
    def test_serial_matches_parallel(self):
        jobs = _jobs()
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=2)
        assert serial == parallel

    def test_cache_round_trip(self, tmp_path):
        jobs = _jobs()
        first = run_jobs(jobs, workers=1, cache_dir=tmp_path)
        assert len(ResultStore(tmp_path)) == len(set(jobs))
        second = run_jobs(jobs, workers=1, cache_dir=tmp_path)
        assert first == second

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_coalesces_duplicate_jobs(self, workers):
        # every route runs each distinct job key once; the serial one
        # used to run a repeated job again
        a = Job("sma", "daxpy", 32, sma_config=SMA_CFG)
        b = Job("scalar", "daxpy", 32, scalar_config=SCALAR_CFG)
        with harness_policy() as stats:
            got = run_jobs([a, b, a], workers=workers)
        assert got == [run_job(a), run_job(b), run_job(a)]
        assert stats.executed == 2
        assert stats.coalesced == 1

    def test_cached_sweep_hashes_each_job_once(self, tmp_path,
                                               monkeypatch):
        # one key per job, reused for the probe and the flush
        jobs = _jobs()[:2]
        jobs.append(jobs[0])
        hashed = []
        real = parallel.job_key
        monkeypatch.setattr(parallel, "job_key",
                            lambda job: hashed.append(job) or real(job))
        with harness_policy() as stats:
            run_jobs(jobs, cache_dir=tmp_path)
        assert hashed == jobs
        assert stats.executed == stats.flushed == 2
        assert stats.coalesced == 1

    def test_pool_sweep_hashes_each_job_once(self, monkeypatch):
        # the pool's scheduler takes the key run_jobs computed
        from repro.harness import scheduler

        jobs = _jobs()[:4]
        hashed = []
        for module in (parallel, scheduler):
            real = module.job_key
            monkeypatch.setattr(
                module, "job_key",
                lambda job, real=real: hashed.append(job) or real(job),
            )
        with harness_policy() as stats:
            run_jobs(jobs, workers=2)
        assert hashed == jobs
        assert stats.executed == 4

    def test_pool_sweep_from_a_running_event_loop(self):
        # a coroutine (a notebook cell, say) may run a pool sweep even
        # though the sweep's own event loop cannot nest inside it
        import asyncio

        jobs = _jobs()[:2]

        async def cell():
            return run_jobs(jobs, workers=2)

        assert asyncio.run(cell()) == run_jobs(jobs)

    def test_cached_sweep_does_not_import_the_service(self, tmp_path):
        # the result store and the pool's scheduler live in the harness:
        # a cached sweep, cold or warm, and a pool sweep never load the
        # service package; the serial and batch paths never load asyncio
        # or the scheduler either
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "from repro.batch import batch_eligible\n"
            "from repro.harness import Job, run_jobs\n"
            "for _ in range(2):\n"
            "    run_jobs([Job('sma', 'daxpy', 16)], cache_dir=sys.argv[1])\n"
            "batched = Job('sma', 'daxpy', 16, seed=2)\n"
            "assert batch_eligible(batched)\n"
            "run_jobs([batched], backend='batch')\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('repro.service', 'asyncio',\n"
            "                              'repro.harness.scheduler'))))\n"
            "run_jobs([Job('sma', 'daxpy', 16, seed=3)], workers=2)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.service')))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["[]", "[]"]
        assert len(ResultStore(tmp_path)) == 1

    def test_cache_is_actually_used(self, tmp_path, monkeypatch):
        jobs = _jobs()
        first = run_jobs(jobs, workers=1, cache_dir=tmp_path)

        def _explode(_job):
            raise AssertionError("cache miss: run_job was called")

        monkeypatch.setattr("repro.harness.parallel.run_job", _explode)
        assert run_jobs(jobs, workers=1, cache_dir=tmp_path) == first

    def test_cache_key_binds_code_version(self):
        job = Job("sma", "daxpy", 32, sma_config=SMA_CFG)
        key = job_key(job)
        assert key != job_key(Job("sma", "daxpy", 64, sma_config=SMA_CFG))
        # same job, same code -> same key (stable across calls)
        assert key == job_key(Job("sma", "daxpy", 32, sma_config=SMA_CFG))
        assert len(code_fingerprint()) == 64  # sha256 hex over src/repro


class TestHarnessRegressions:
    def test_job_key_canonicalizes_numpy_scalars(self):
        # a sweep built from np.arange axes must hit the same cache
        # entries as one built from builtin ints
        base = Job(
            "sma", "daxpy", 32, seed=7,
            sma_config=SMAConfig(
                memory=MemoryConfig(latency=8, num_banks=8)
            ),
        )
        numpyish = Job(
            "sma", "daxpy", np.int64(32), seed=np.int64(7),
            sma_config=SMAConfig(
                memory=MemoryConfig(
                    latency=np.int64(8), num_banks=np.int32(8)
                )
            ),
        )
        assert isinstance(numpyish.n, int)
        assert type(numpyish.sma_config.memory.latency) is int
        assert repr(numpyish) == repr(base)
        assert job_key(numpyish) == job_key(base)

        # every config class is canonical by construction, wherever it
        # sits in a job
        def numpy_kwargs(kwargs):
            return {
                name: np.int64(v) if type(v) is int
                else np.float64(v) if type(v) is float else v
                for name, v in kwargs.items()
            }

        leaves = [
            (MemoryConfig, dict(size=4096, num_banks=16, latency=12,
                                bank_busy=6, accepts_per_cycle=2)),
            (QueueConfig, dict(load_queue_depth=4, store_data_depth=2,
                               store_addr_depth=3, index_queue_depth=5,
                               ep_to_ap_data_depth=6,
                               ep_to_ap_branch_depth=7)),
            (CacheConfig, dict(size_words=512, line_words=8,
                               associativity=4, hit_time=2,
                               transfer_cycles=3)),
            (PrefetchConfig, dict(policy="obl", table_size=8, degree=2,
                                  stale_after=100)),
            (SpeculationConfig, dict(accuracy=0.75, mode="coin",
                                     max_depth=3, rollback_penalty=5,
                                     seed=2)),
        ]
        built = {}
        for cls, kwargs in leaves:
            literal, numeric = cls(**kwargs), cls(**numpy_kwargs(kwargs))
            assert numeric == literal and repr(numeric) == repr(literal)
            assert all(type(getattr(numeric, name)) is
                       type(getattr(literal, name)) for name in kwargs)
            built[cls] = literal, numeric
        tops = {
            SMAConfig: lambda i: dict(
                memory=built[MemoryConfig][i],
                queues=built[QueueConfig][i],
                speculation=built[SpeculationConfig][i],
            ),
            ScalarConfig: lambda i: dict(
                memory=built[MemoryConfig][i],
                cache=built[CacheConfig][i],
                prefetch=built[PrefetchConfig][i],
            ),
        }
        scalars = dict(max_streams=12, stream_issue_per_cycle=2,
                       num_load_queues=6, num_store_queues=3,
                       num_index_queues=2)
        literal = SMAConfig(**tops[SMAConfig](0), **scalars)
        numeric = SMAConfig(**tops[SMAConfig](1), **numpy_kwargs(scalars))
        scalar_literal = ScalarConfig(**tops[ScalarConfig](0))
        scalar_numeric = ScalarConfig(**tops[ScalarConfig](1))
        for machine, field, lit, num in (
            ("sma", "sma_config", literal, numeric),
            ("scalar", "scalar_config", scalar_literal, scalar_numeric),
            ("vector", "memory_config", built[MemoryConfig][0],
             built[MemoryConfig][1]),
        ):
            assert num == lit and repr(num) == repr(lit)
            a = Job(machine, "daxpy", 32, **{field: lit})
            b = Job(machine, "daxpy", np.int64(32), **{field: num})
            assert repr(a) == repr(b) and job_key(a) == job_key(b)

        # a batch grid from numpy axes expands to the literal grid's jobs
        literal_grid = BatchJob("daxpy", 32, 7, latencies=(2, 6),
                                queue_depths=(4, 8), bank_counts=(8, 16))
        numpy_grid = BatchJob(
            "daxpy", np.int64(32), np.int32(7),
            latencies=np.arange(2, 10, 4), queue_depths=[np.int8(4), 8],
            bank_counts=np.array([8, 16]),
        )
        assert numpy_grid == literal_grid
        expanded = literal_grid.expand()
        assert [repr(j) for j in numpy_grid.expand()] == \
            [repr(j) for j in expanded]
        assert [job_key(j) for j in numpy_grid.expand()] == \
            [job_key(j) for j in expanded]

    def test_fingerprint_cached_seedable_and_refreshable(self):
        original = code_fingerprint()
        try:
            # what the pool initializer does: seed the worker's cache
            # with the driver's value instead of rescanning src/repro
            parallel._pool_init(None, "f" * 64)
            assert code_fingerprint() == "f" * 64
            # a long-lived driver can force a rescan (the old lru_cache
            # could not be invalidated)
            assert code_fingerprint(refresh=True) == original
        finally:
            parallel._FINGERPRINT = original

    def test_pool_backoff_does_not_stall_other_jobs(self, tmp_path):
        # one poison job whose retry backs off for `backoff` seconds,
        # plus good jobs queued behind it: the good jobs' results must
        # land (flush to the cache) while the poison job is backing
        # off, not after.  The old harness slept the backoff inside the
        # completed-future loop, freezing submission and deadline
        # polling for every other job.
        backoff = 2.5
        jobs = [
            Job("sma", "no-such-kernel", 16),
            Job("sma", "daxpy", 16, sma_config=SMA_CFG),
            Job("scalar", "daxpy", 16, scalar_config=SCALAR_CFG),
            Job("vector", "daxpy", 16),
        ]
        from repro.errors import KernelError

        start = time.time()
        with harness_policy(retries=1, backoff=backoff):
            with pytest.raises(KernelError):
                run_jobs(jobs, workers=2, cache_dir=tmp_path)
        elapsed = time.time() - start
        flushed = list(tmp_path.glob(f"*{SUFFIX}"))
        assert len(flushed) == 3  # every good job landed
        latest = max(p.stat().st_mtime for p in flushed)
        assert latest - start < backoff - 0.5, (
            "good jobs flushed only after the poison job's backoff "
            "window — the driver slept instead of resubmitting"
        )
        # and the backoff itself was honored before the final attempt
        assert elapsed >= backoff

    def test_occupancy_job_honors_lod_variant(self):
        # _run_occupancy used to lower the plain program regardless of
        # job.lod_variant, so an occupancy job with lod_variant="addr"
        # silently simulated the wrong machine while its cache key
        # (which includes the field via repr(job)) claimed otherwise
        plain = run_job(
            Job("sma-occupancy", "pic_gather", 32, sma_config=SMA_CFG,
                buckets=8)
        )
        addr = run_job(
            Job("sma-occupancy", "pic_gather", 32, sma_config=SMA_CFG,
                buckets=8, lod_variant="addr")
        )
        assert plain != addr, (
            "occupancy trace identical across lod variants — the "
            "variant was dropped on the way to lower_sma"
        )
        # the LOD-heavy lowering round-trips every gather index through
        # the EP, so it must be strictly slower
        assert addr["cycles"] > plain["cycles"]
        branch = run_job(
            Job("sma-occupancy", "tridiag", 32, sma_config=SMA_CFG,
                buckets=8, lod_variant="branch")
        )
        plain_tridiag = run_job(
            Job("sma-occupancy", "tridiag", 32, sma_config=SMA_CFG,
                buckets=8)
        )
        assert branch != plain_tridiag

    def test_pool_flushes_completed_mates_of_terminal_failure(
        self, tmp_path, monkeypatch
    ):
        # two jobs complete in the same wait round: one success, one
        # terminal failure.  The failure used to raise out of the
        # completed-future loop before the success was recorded, so a
        # --resume rerun re-executed finished work.  A fake pool pins
        # the ordering: it runs each job as it is submitted, failure
        # first, so both have landed when run_jobs looks.
        import concurrent.futures as cf

        from repro.errors import KernelError

        class FakePool:
            def __init__(self, max_workers=None, initializer=None,
                         initargs=()):
                if initializer is not None:
                    initializer(*initargs)

            def submit(self, fn, *args):
                future = cf.Future()
                try:
                    future.set_result(fn(*args))
                except BaseException as exc:
                    future.set_exception(exc)
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(cf, "ProcessPoolExecutor", FakePool)

        good = Job("scalar", "daxpy", 16, scalar_config=SCALAR_CFG)
        bad = Job("sma", "no-such-kernel", 16)
        with harness_policy(retries=0) as stats:
            with pytest.raises(KernelError):
                run_jobs([bad, good], workers=2, cache_dir=tmp_path)
        assert stats.executed == 1
        assert stats.flushed == 1
        flushed = list(tmp_path.glob(f"*{SUFFIX}"))
        assert len(flushed) == 1, (
            "the completed pool-mate of a terminal failure was dropped "
            "without being flushed"
        )
        assert flushed[0].name == job_key(good) + SUFFIX
        # and a resume run serves the good job from the cache
        with harness_policy() as stats:
            assert run_jobs([good], cache_dir=tmp_path)[0] == ResultStore(
                tmp_path
            ).get(job_key(good))
        assert stats.executed == 0 and stats.hits == 1

    def test_batch_shard_failure_goes_through_charging_path(
        self, monkeypatch
    ):
        # a BrokenProcessPool out of a sharded batch worker used to
        # propagate without a retry charge or a stats.record_failure
        # entry; now it is charged and the sweep falls back to the
        # scalar path with the policy intact
        from concurrent.futures.process import BrokenProcessPool

        from repro import batch as batch_mod

        def exploding_run_batch(jobs, workers=1, on_result=None):
            raise BrokenProcessPool("batch shard worker died")

        monkeypatch.setattr(batch_mod, "run_batch", exploding_run_batch)
        jobs = [
            Job("sma", "daxpy", 16, sma_config=SMA_CFG),
            Job("scalar", "daxpy", 16, scalar_config=SCALAR_CFG),
        ]
        with harness_policy(retries=1, backoff=0.0) as stats:
            results = run_jobs(jobs, backend="batch")
        assert results[0]["cycles"] > 0 and results[1]["cycles"] > 0
        assert stats.failures.get("BrokenProcessPool") == 1
        assert stats.retried == 1
        # fail-fast behavior is preserved when the budget is zero
        with harness_policy(retries=0) as stats:
            with pytest.raises(BrokenProcessPool):
                run_jobs(jobs, backend="batch")
        assert stats.failures.get("BrokenProcessPool") == 1
        assert stats.retried == 0

    def test_batch_backend_refuses_an_armed_fault(self, tmp_path):
        # the batch engine runs outside the fault hooks: an armed fault
        # is refused before the cache is probed, never run per point
        from repro.harness.faults import FaultSpec

        jobs = [Job("sma", "daxpy", 16, sma_config=SMA_CFG)]
        with harness_policy(inject=FaultSpec("sleep", 0.0)):
            with pytest.raises(ValueError, match="fault 'sleep'"):
                run_jobs(jobs, cache_dir=tmp_path / "cache",
                         backend="batch")
        assert not (tmp_path / "cache").exists()


class TestSerialFailureHandling:
    def test_raising_kernel_records_exception_type(self):
        # the serial retry loop must both retry a genuinely raising job
        # and leave an audit trail of *what* raised in the sweep stats
        from repro.errors import KernelError

        with harness_policy(retries=2, backoff=0.0) as stats:
            with pytest.raises(KernelError, match="unknown kernel"):
                run_jobs([Job("sma", "no-such-kernel", 16)])
        assert stats.failures == {"KernelError": 3}
        assert stats.retried == 2
        assert "KernelError×3" in stats.summary()

    @pytest.mark.parametrize("abort", [KeyboardInterrupt, SystemExit])
    def test_user_abort_propagates_without_retry(self, monkeypatch,
                                                 abort):
        # ctrl-C (or a SystemExit from a signal handler) must escape the
        # serial path immediately — not be swallowed and retried like an
        # ordinary job failure
        def boom(job):
            raise abort()

        monkeypatch.setattr(parallel, "run_job", boom)
        with harness_policy(retries=3, backoff=0.0) as stats:
            with pytest.raises(abort):
                run_jobs([Job("sma", "daxpy", 16, sma_config=SMA_CFG)])
        assert stats.retried == 0
        assert stats.failures == {}


class TestExperimentsThroughJobs:
    def test_experiment_identical_serial_vs_parallel(self):
        kwargs = dict(n=16, depths=(1, 4), kernels=("daxpy",))
        serial = exp.run_experiment("R-F2", **kwargs, jobs=1)
        parallel = exp.run_experiment("R-F2", **kwargs, jobs=2)
        assert serial.to_csv() == parallel.to_csv()

    def test_experiment_identical_with_cache(self, tmp_path):
        kwargs = dict(
            n=16, latencies=(2, 8), kernels=("daxpy", "inner_product")
        )
        cold = exp.run_experiment("R-F1", **kwargs, cache_dir=str(tmp_path))
        assert len(ResultStore(tmp_path))
        warm = exp.run_experiment("R-F1", **kwargs, cache_dir=str(tmp_path))
        assert cold.to_csv() == warm.to_csv()

    @pytest.mark.parametrize("eid", sorted(exp.EXPERIMENTS))
    def test_every_experiment_yields_one_job_list(self, eid):
        # the plan contract run_suite relies on: one job list out, the
        # results in, a table back after a single send
        plan = exp.EXPERIMENTS[eid](n=16)
        joblist = next(plan)
        assert joblist and all(isinstance(job, Job) for job in joblist)
        with pytest.raises(StopIteration) as done:
            plan.send(run_jobs(joblist))
        assert isinstance(done.value.value, exp.Table)
        assert done.value.value.experiment_id == eid


def test_suite_runs_each_distinct_job_once():
    """One ``run_suite`` over every experiment reproduces the golden
    tables and runs each distinct simulation once: jobs that differ
    only in ``check`` share one (checked) execution."""
    golden = json.loads(
        (Path(__file__).parent / "golden_experiments.json").read_text()
    )["tables"]
    ids = list(exp.EXPERIMENTS)
    planned = [job for eid in ids
               for job in next(exp.EXPERIMENTS[eid](n=32))]
    distinct = {job_key(job) for job in planned}
    simulations = {replace(job, check=False) for job in planned}
    with harness_policy() as stats:
        tables = exp.run_suite(ids, n=32)
    assert stats.executed == len(simulations) < len(distinct)
    assert stats.coalesced == len(planned) - len(simulations)
    for eid, table in zip(ids, tables):
        want = golden[eid]
        if want["kwargs"] != {"n": 32}:
            # pinned at other sizes; the per-experiment run is the
            # reference there
            want = exp.run_experiment(eid, n=32)
            want = {"columns": list(want.columns),
                    "rows": [list(row) for row in want.rows]}
        assert list(table.columns) == want["columns"], eid
        rows = json.loads(json.dumps([list(row) for row in table.rows]))
        assert rows == json.loads(json.dumps(want["rows"])), eid


def test_suite_refuses_an_unknown_id_before_running(monkeypatch):
    monkeypatch.setattr(exp, "run_jobs", None)  # any call would fail
    with pytest.raises(KeyError, match="unknown experiment 'R-T99'"):
        exp.run_suite(["R-T4", "R-T99"])


#: sha256 over the reprs, one per line, of every job
#: ``run_suite(list(EXPERIMENTS))`` plans at paper sizes.  ``repr(job)``
#: is the job part of every result-cache key, so this moves only when
#: every cached suite result is invalidated.
SUITE_JOB_REPRS_SHA256 = (
    "2774cc30a215996aaf165acdf97c25b767f9a71a1549956e2cf59fe555a75063"
)


def test_suite_job_reprs_are_pinned(monkeypatch):
    planned = []

    class Planned(Exception):
        pass

    def capture(jobs, workers=1, cache_dir=None):
        planned.extend(jobs)
        raise Planned

    monkeypatch.setattr(exp, "run_jobs", capture)
    with pytest.raises(Planned):
        exp.run_suite(list(exp.EXPERIMENTS))
    text = "\n".join(repr(job) for job in planned)
    assert len(planned) == 409
    assert hashlib.sha256(text.encode()).hexdigest() == \
        SUITE_JOB_REPRS_SHA256


@pytest.mark.parametrize("workers", [1, 2])
def test_check_twins_run_once_and_leave_two_cache_entries(
        tmp_path, monkeypatch, workers):
    checks = []
    real = jobs_module._check_outputs

    def spy(*args, **kwargs):
        checks.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(jobs_module, "_check_outputs", spy)
    plain = Job("sma", "daxpy", 24, sma_config=SMA_CFG)
    checked = replace(plain, check=True)
    with harness_policy() as stats:
        a, b = run_jobs([plain, checked], workers=workers,
                        cache_dir=tmp_path)
    assert a == b == run_job(plain)
    assert (stats.executed, stats.coalesced, stats.flushed) == (1, 1, 2)
    store = ResultStore(tmp_path)
    assert len(store) == 2
    assert store.get(job_key(plain)) == store.get(job_key(checked)) == a
    if workers == 1:  # a pool worker's checks are not seen here
        assert checks == [checked]


def test_failing_check_fails_both_twins(tmp_path, monkeypatch):
    def diverge(job, machine, outputs, seed=None):
        raise AssertionError(f"{job.kernel}: {machine} diverges")

    monkeypatch.setattr(jobs_module, "_check_outputs", diverge)
    plain = Job("sma", "daxpy", 24, sma_config=SMA_CFG)
    with harness_policy() as stats:
        with pytest.raises(AssertionError, match="diverges"):
            run_jobs([plain, replace(plain, check=True)],
                     cache_dir=tmp_path)
    assert stats.executed == 0 and len(ResultStore(tmp_path)) == 0


#: sha256 of R-F8's 12 result dicts (``json.dumps(..., sort_keys=True)``)
RF8_RESULTS_SHA256 = (
    "e81954fb8110632da6f04837e9b0398b6a7a3223e658e4fe15b6d4dc8c8eab20"
)


def test_rf8_simulates_each_standalone_node_once(monkeypatch):
    """R-F8's 12 cluster jobs hold 45 nodes but only 24 distinct
    (kernel, n, seed, config) standalone runs; each runs once."""
    from repro.core.machine import SMAMachine

    for memo in (jobs_module._instantiated, jobs_module._lowered_sma,
                 jobs_module._reference, jobs_module._standalone_cycles):
        memo.cache_clear()
    runs = []
    real = SMAMachine.run

    def counted(self, *args, **kwargs):
        runs.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SMAMachine, "run", counted)
    results = run_jobs(next(exp.EXPERIMENTS["R-F8"]()))
    assert len(runs) == 24
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RF8_RESULTS_SHA256


def _spy_lowerings(monkeypatch, *names):
    """Record ``(function name, kernel, base)`` for every call of the
    named ``repro.kernels`` compilers."""
    import repro.kernels as kernels

    calls = []
    for name in names:
        def spy(kernel, *args, real=getattr(kernels, name), name=name,
                **kwargs):
            calls.append((name, kernel, kwargs.get("base")))
            return real(kernel, *args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    return calls


def test_rf8_lowers_each_node_program_once(monkeypatch):
    """A cluster node's program depends on its kernel and base address,
    never on its inputs: R-F8's 45 nodes lower 8 distinct programs, and
    its standalone runs one per kernel and size."""
    from repro.harness import runner

    for memo in (jobs_module._lowered_sma, runner._lowered_node):
        memo.cache_clear()
    calls = _spy_lowerings(monkeypatch, "lower_sma")
    run_jobs(next(exp.EXPERIMENTS["R-F8"]()))
    assert len(calls) == len(set(calls))
    assert sum(base is not None for _, _, base in calls) == 8


def test_fresh_seed_slices_lower_each_program_once(monkeypatch):
    """Ten slices of one kernel on fresh input seeds, as ``repro serve``
    receives them (an ``sma`` and a ``scalar`` job each, checked), lower
    the kernel once per machine: its program does not depend on the
    seed."""
    for memo in (jobs_module._lowered_sma, jobs_module._lowered_scalar):
        memo.cache_clear()
    calls = _spy_lowerings(monkeypatch, "lower_sma", "lower_scalar")
    jobs = [
        Job(machine, "state_eqn", 24, 5000 + i, check=True)
        for i in range(10) for machine in ("sma", "scalar")
    ]
    run_jobs(jobs)  # each job checks its outputs against its own seed
    assert [name for name, _, _ in calls] == ["lower_sma", "lower_scalar"]
