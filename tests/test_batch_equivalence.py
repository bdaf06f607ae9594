"""Batch-engine equivalence: the SoA lockstep simulator is bit-exact.

The batch backend (:mod:`repro.batch`) exists purely for sweep
throughput; it must never move a number.  This suite pins that from
three directions:

* Hypothesis draws random (kernel, machine, latency, depth, banks)
  lanes and requires the *full result dict* — cycles, instruction
  counts, every stall bucket with its ordering, memory traffic,
  occupancy — to equal the scalar interpreter's, plus a sha256 digest
  over the final memory image of every kernel array.
* A fixed dense grid runs once through ``run_batch`` and Hypothesis
  subsamples lanes against per-lane scalar reruns, exercising the
  divergent-lane masking (different lanes finish thousands of cycles
  apart).
* Two experiments with the largest lane groups, their ``run_jobs``
  calls forced onto ``backend="batch"``, must reproduce
  ``golden_experiments.json`` bit-identically, same as the scalar
  path.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import run_batch
from repro.batch.dispatch import _BATCH_MACHINES, batch_eligible
from repro.batch.engine import LaneEngine
from repro.config import MemoryConfig, QueueConfig, SMAConfig
from repro.harness.experiments import run_experiment
from repro.harness.jobs import (
    BatchJob,
    Job,
    _instantiated,
    _lowered_sma,
    run_job,
)
from repro.harness.parallel import harness_policy, run_jobs
from repro.harness.runner import _fit_memory, run_on_sma

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_experiments.json").read_text()
)

KERNELS = ("daxpy", "tridiag", "computed_gather")


def _grid_config(latency: int, depth: int, banks: int) -> SMAConfig:
    """The experiments' sweep convention (mirrors BatchJob.expand)."""
    return SMAConfig(
        memory=MemoryConfig(
            latency=latency, bank_busy=max(1, latency // 2),
            num_banks=banks,
        ),
        queues=QueueConfig(
            load_queue_depth=depth, store_data_depth=depth,
            store_addr_depth=depth, index_queue_depth=depth,
        ),
    )


lane_params = st.tuples(
    st.sampled_from(KERNELS),
    st.sampled_from(("sma", "sma-nostream")),
    st.integers(min_value=1, max_value=96),      # latency
    st.integers(min_value=1, max_value=24),      # queue depth
    st.sampled_from((1, 2, 4, 8, 16)),           # banks
)


@settings(max_examples=20, deadline=None)
@given(lane_params)
def test_random_lane_matches_scalar_interpreter(params):
    kernel, machine, latency, depth, banks = params
    job = Job(machine, kernel, 32,
              sma_config=_grid_config(latency, depth, banks))
    got = run_batch([job])
    assert set(got) == {0}
    assert got[0] == run_job(job)


def _memory_digests(job: Job) -> tuple[str, str]:
    """sha256 over every kernel array's final memory image, batch and
    scalar side.  The batch staging below mirrors ``dispatch.run_group``
    so the digest reads the engine's own memory planes, not a re-run."""
    use_streams = _BATCH_MACHINES[job.machine]
    kernel, inputs = _instantiated(job.kernel, job.n, job.seed)
    lowered = _lowered_sma(job.kernel, job.n, use_streams)
    layout = lowered.layout
    cfg = job.sma_config
    cfg = cfg.__class__(
        **{**cfg.__dict__, "memory": _fit_memory(cfg.memory, layout)}
    )

    touched = layout.end + 16
    for program in (lowered.access_program, lowered.execute_program):
        for base, values in program.data:
            touched = max(touched, base + len(values))
    image = np.zeros(min(touched, cfg.memory.size), dtype=np.float64)
    for program in (lowered.access_program, lowered.execute_program):
        for base, values in program.data:
            image[base:base + len(values)] = np.asarray(
                values, dtype=np.float64
            )
    for decl in kernel.arrays:
        arr = np.asarray(inputs[decl.name], dtype=np.float64)
        image[layout.base(decl.name):][:arr.shape[0]] = arr

    engine = LaneEngine(
        lowered.access_program, lowered.execute_program, [cfg],
        image, logical_size=cfg.memory.size,
    )
    outcome = engine.run()
    batch = hashlib.sha256()
    for decl in kernel.arrays:
        batch.update(
            outcome.dump_array(0, layout.base(decl.name), decl.size)
            .astype(np.float64).tobytes()
        )

    run = run_on_sma(kernel, inputs, job.sma_config, use_streams, lowered)
    scalar = hashlib.sha256()
    for decl in kernel.arrays:
        scalar.update(
            np.asarray(run.outputs[decl.name], dtype=np.float64).tobytes()
        )
    return batch.hexdigest(), scalar.hexdigest()


@settings(max_examples=8, deadline=None)
@given(lane_params)
def test_memory_image_digest_matches(params):
    kernel, machine, latency, depth, banks = params
    job = Job(machine, kernel, 32,
              sma_config=_grid_config(latency, depth, banks))
    batch_digest, scalar_digest = _memory_digests(job)
    assert batch_digest == scalar_digest


GRID = BatchJob(
    "tridiag", 40,
    latencies=(1, 3, 8, 24, 64),
    queue_depths=(1, 2, 6, 12),
    bank_counts=(2, 8),
)


@pytest.fixture(scope="module")
def grid_results():
    jobs = GRID.expand()
    return jobs, run_batch(jobs)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=39))
def test_grid_lane_subsample_matches_scalar(grid_results, lane):
    jobs, results = grid_results
    assert len(results) == len(jobs) == 40
    assert results[lane] == run_job(jobs[lane])


def test_run_jobs_batch_backend_matches_scalar_and_shares_cache(tmp_path):
    jobs = BatchJob(
        "daxpy", 24, latencies=(2, 8), queue_depths=(1, 4)
    ).expand()
    jobs.append(Job("vector", "daxpy", 24))  # ineligible: scalar remainder
    batch = run_jobs(jobs, cache_dir=tmp_path, backend="batch")
    assert batch == run_jobs(jobs)
    # batch-flushed entries serve a later scalar-backend sweep verbatim
    with harness_policy() as stats:
        assert run_jobs(jobs, cache_dir=tmp_path) == batch
    assert stats.hits == len(jobs)


def test_eligibility_gates():
    assert batch_eligible(Job("sma", "daxpy", 32))
    assert batch_eligible(Job("sma-nostream", "daxpy", 32))
    assert not batch_eligible(Job("vector", "daxpy", 32))
    multiport = SMAConfig(memory=MemoryConfig(accepts_per_cycle=2))
    assert not batch_eligible(Job("sma", "daxpy", 32, sma_config=multiport))
    wide = SMAConfig(stream_issue_per_cycle=2)
    assert not batch_eligible(Job("sma", "daxpy", 32, sma_config=wide))


def test_batchjob_expand_is_latency_major_with_builtin_ints():
    bj = BatchJob(
        "daxpy", np.int64(16),
        latencies=np.array([4, 1]), queue_depths=[2, 8], bank_counts=(8,),
    )
    assert bj.n == 16 and type(bj.n) is int
    assert bj.latencies == (4, 1)
    jobs = bj.expand()
    seen = [
        (j.sma_config.memory.latency, j.sma_config.queues.load_queue_depth)
        for j in jobs
    ]
    assert seen == [(4, 2), (4, 8), (1, 2), (1, 8)]
    assert all(type(lat) is int for lat, _depth in seen)
    with pytest.raises(ValueError, match="non-empty"):
        BatchJob("daxpy", 16, latencies=())
    with pytest.raises(ValueError, match="batch jobs target"):
        BatchJob("daxpy", 16, machine="vector")


@pytest.mark.parametrize("eid", ["R-T1", "R-F1"])
def test_batch_backend_reproduces_golden(eid, monkeypatch):
    from repro.harness import experiments

    calls = []

    def batch_run_jobs(jobs, workers=1, cache_dir=None):
        calls.append(len(jobs))
        return run_jobs(jobs, workers, cache_dir, backend="batch")

    monkeypatch.setattr(experiments, "run_jobs", batch_run_jobs)
    want = GOLDEN["tables"][eid]
    table = run_experiment(eid, **want["kwargs"])
    assert calls, f"{eid} did not reach the wrapped run_jobs"
    assert list(table.columns) == want["columns"]
    got_rows = json.loads(json.dumps([list(row) for row in table.rows]))
    assert got_rows == want["rows"], (
        f"{eid} through the batch backend diverged from the scalar "
        "golden numbers"
    )
