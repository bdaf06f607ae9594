"""The job layer and parallel/cached sweep harness.

Covers: job execution for every machine kind, serial vs process-pool
equality (results must not depend on ``--jobs``), the on-disk result
cache (hits round-trip exactly, keys bind to the code version), and the
experiments' declarative job lists feeding identical tables through
either path.
"""

import json
import time

import numpy as np
import pytest

from repro.config import MemoryConfig, QueueConfig, ScalarConfig, SMAConfig
from repro.harness import experiments as exp
from repro.harness import parallel
from repro.harness.jobs import Job, run_job
from repro.harness.parallel import code_fingerprint, job_key, run_jobs
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

    def test_cached_sweep_does_not_import_the_service(self, tmp_path):
        # the result store lives in the harness: a cached sweep, cold
        # or warm, never loads the service package
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "from repro.harness import Job, run_jobs\n"
            "for _ in range(2):\n"
            "    run_jobs([Job('sma', 'daxpy', 16)], cache_dir=sys.argv[1])\n"
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
        assert out.stdout.strip() == "[]"
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
        with pytest.raises(KernelError):
            run_jobs(
                jobs, workers=2, cache_dir=tmp_path,
                retries=1, backoff=backoff,
            )
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
        # the ordering: wait() hands back [failure, success], the worst
        # case for the old single-pass loop.
        import concurrent.futures as cf

        from repro.errors import KernelError
        from repro.harness import harness_policy

        class FakePool:
            def __init__(self, max_workers=None, initializer=None,
                         initargs=()):
                if initializer is not None:
                    initializer(*initargs)

            def submit(self, fn, job):
                future = cf.Future()
                try:
                    future.set_result(fn(job))
                except BaseException as exc:
                    future.set_exception(exc)
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        def fake_wait(futures, timeout=None, return_when=None):
            # every inflight future is already done; order the failing
            # one first so charge() raises before the success is seen
            ordered = sorted(
                futures, key=lambda f: f.exception() is None
            )
            return ordered, set()

        monkeypatch.setattr(cf, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cf, "wait", fake_wait)

        good = Job("scalar", "daxpy", 16, scalar_config=SCALAR_CFG)
        bad = Job("sma", "no-such-kernel", 16)
        with harness_policy() as stats:
            with pytest.raises(KernelError):
                run_jobs([bad, good], workers=2, cache_dir=tmp_path,
                         retries=0)
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
        from repro.harness import harness_policy

        def exploding_run_batch(jobs, workers=1, on_result=None):
            raise BrokenProcessPool("batch shard worker died")

        monkeypatch.setattr(batch_mod, "run_batch", exploding_run_batch)
        jobs = [
            Job("sma", "daxpy", 16, sma_config=SMA_CFG),
            Job("scalar", "daxpy", 16, scalar_config=SCALAR_CFG),
        ]
        with harness_policy() as stats:
            results = run_jobs(jobs, backend="batch", retries=1,
                               backoff=0.0)
        assert results[0]["cycles"] > 0 and results[1]["cycles"] > 0
        assert stats.failures.get("BrokenProcessPool") == 1
        assert stats.retried == 1
        # fail-fast behavior is preserved when the budget is zero
        with harness_policy() as stats:
            with pytest.raises(BrokenProcessPool):
                run_jobs(jobs, backend="batch", retries=0)
        assert stats.failures.get("BrokenProcessPool") == 1
        assert stats.retried == 0


class TestSerialFailureHandling:
    def test_raising_kernel_records_exception_type(self):
        # the serial retry loop must both retry a genuinely raising job
        # and leave an audit trail of *what* raised in the sweep stats
        from repro.errors import KernelError
        from repro.harness import harness_policy

        with harness_policy() as stats:
            with pytest.raises(KernelError, match="unknown kernel"):
                run_jobs([Job("sma", "no-such-kernel", 16)],
                         retries=2, backoff=0.0)
        assert stats.failures == {"KernelError": 3}
        assert stats.retried == 2
        assert "KernelError×3" in stats.summary()

    @pytest.mark.parametrize("abort", [KeyboardInterrupt, SystemExit])
    def test_user_abort_propagates_without_retry(self, monkeypatch,
                                                 abort):
        # ctrl-C (or a SystemExit from a signal handler) must escape the
        # serial path immediately — not be swallowed and retried like an
        # ordinary job failure
        from repro.harness import harness_policy

        def boom(job):
            raise abort()

        monkeypatch.setattr(parallel, "run_job", boom)
        with harness_policy() as stats:
            with pytest.raises(abort):
                run_jobs([Job("sma", "daxpy", 16, sma_config=SMA_CFG)],
                         retries=3, backoff=0.0)
        assert stats.retried == 0
        assert stats.failures == {}


class TestExperimentsThroughJobs:
    def test_experiment_identical_serial_vs_parallel(self):
        kwargs = dict(n=16, depths=(1, 4), kernels=("daxpy",))
        serial = exp.fig2_queue_depth(**kwargs, jobs=1)
        parallel = exp.fig2_queue_depth(**kwargs, jobs=2)
        assert serial.to_csv() == parallel.to_csv()

    def test_experiment_identical_with_cache(self, tmp_path):
        kwargs = dict(
            n=16, latencies=(2, 8), kernels=("daxpy", "inner_product")
        )
        cold = exp.fig1_latency(**kwargs, cache_dir=str(tmp_path))
        assert len(ResultStore(tmp_path))
        warm = exp.fig1_latency(**kwargs, cache_dir=str(tmp_path))
        assert cold.to_csv() == warm.to_csv()

    def test_every_experiment_accepts_harness_kwargs(self):
        import inspect

        for name, fn in exp.EXPERIMENTS.items():
            params = inspect.signature(fn).parameters
            assert "jobs" in params and "cache_dir" in params, name
