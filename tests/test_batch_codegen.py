"""Program-specialized batch codegen: bit-exactness and dispatch.

The batch lane stepper (:mod:`repro.batch.emitter`) compiles one
straight-line numpy loop per decoded AP/EP program pair, and the
dispatch layer adds saturation collapse (deep-queue lanes served from a
probe run) on top.  None of that may ever move a number.  This suite
pins, against the per-point path (``run_job``) as the reference:

* every lane of random lane grids (full result dicts) and of one
  multi-lane engine (per-lane stats and memory-image digests);
* every suite kernel specializes (``run_group`` never returns ``None``
  and the refusal counter stays put);
* the saturation-collapse planner only collapses provably-dominated
  lanes, and collapsed results equal per-lane scalar reruns;
* the fingerprint cache compiles once per program pair, and a program
  the emitter refuses is logged once and runs per point;
* batch-flushed cache entries serve a later per-point sweep verbatim;
* two dispatch regressions: speculation-enabled configs stay on the
  scalar path, and ``lod_variant`` jobs land in distinct lane groups.
"""

import hashlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import LaneEngine, run_batch
from repro.batch.cache import clear_cache, stats as cache_stats
from repro.batch.decode import QueueLayout
from repro.batch.dispatch import (
    _BATCH_MACHINES,
    _collapse_classes,
    _group_key,
    batch_eligible,
    plan_groups,
    run_group,
)
from repro.config import (
    MemoryConfig,
    QueueConfig,
    SMAConfig,
    SpeculationConfig,
)
from repro.harness.jobs import (
    BatchJob,
    Job,
    _instantiated,
    _lowered_sma,
    run_job,
)
from repro.harness.parallel import harness_policy, run_jobs
from repro.harness.runner import _fit_memory, run_on_sma
from repro.kernels import all_kernels

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


# ---------------------------------------------------------------------------
# batch lanes vs the per-point path
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(KERNELS),
    st.sampled_from(("sma", "sma-nostream")),
    st.lists(st.integers(1, 96), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
)
def test_random_grid_compiled_interpreted_scalar_agree(
    kernel, machine, latencies, depths
):
    """Every lane of a random grid (at most 12 lanes) equals the
    per-point run of its config."""
    jobs = BatchJob(
        kernel, 28, machine=machine,
        latencies=tuple(latencies), queue_depths=tuple(depths),
    ).expand()
    assert run_batch(jobs) == {i: run_job(job) for i, job in enumerate(jobs)}


@pytest.mark.parametrize("machine", ["sma", "sma-nostream"])
@pytest.mark.parametrize(
    "kernel", [spec.name for spec in all_kernels()]
)
def test_every_suite_program_specializes(kernel, machine):
    """The generated stepper must exist for every kernel in the suite,
    on both batch machines, and agree with the per-point path."""
    job = Job(machine, kernel, 24, sma_config=_grid_config(8, 4, 8))
    refused = cache_stats.unsupported
    results = run_group([job])
    assert results is not None
    assert results == [run_job(job)]
    assert cache_stats.unsupported == refused


def _staged_engine(kernel_name, machine, n, configs):
    """Build one multi-lane engine the way ``dispatch.run_group`` does,
    so digests read the engine's own memory planes, not a re-run.
    Returns ``(kernel, inputs, lowered, engine)``."""
    use_streams = _BATCH_MACHINES[machine]
    kernel, inputs = _instantiated(kernel_name, n, 12345)
    lowered = _lowered_sma(kernel_name, n, use_streams)
    layout = lowered.layout
    fitted = [
        cfg.__class__(
            **{**cfg.__dict__, "memory": _fit_memory(cfg.memory, layout)}
        )
        for cfg in configs
    ]
    size = max(cfg.memory.size for cfg in fitted)
    touched = layout.end + 16
    for program in (lowered.access_program, lowered.execute_program):
        for base, values in program.data:
            touched = max(touched, base + len(values))
    image = np.zeros(min(touched, size), dtype=np.float64)
    for program in (lowered.access_program, lowered.execute_program):
        for base, values in program.data:
            image[base:base + len(values)] = np.asarray(
                values, dtype=np.float64
            )
    for decl in kernel.arrays:
        arr = np.asarray(inputs[decl.name], dtype=np.float64)
        image[layout.base(decl.name):][:arr.shape[0]] = arr
    engine = LaneEngine(
        lowered.access_program, lowered.execute_program, fitted,
        image, logical_size=size,
    )
    return kernel, inputs, lowered, engine


def _digest(values) -> str:
    return hashlib.sha256(
        np.asarray(values, dtype=np.float64).tobytes()
    ).hexdigest()


@pytest.mark.parametrize("kernel", KERNELS)
def test_compiled_memory_digests_and_lane_dicts_match(kernel):
    """Each lane of one multi-lane engine equals that lane's per-point
    run: its ``run_job`` result fields and the sha256 of every output
    array ``run_on_sma`` produces."""
    depths = (1, 2, 5, 9, 33)
    configs = [_grid_config(11, depth, 4) for depth in depths]
    spec, inputs, lowered, engine = _staged_engine(
        kernel, "sma", 32, configs
    )
    out = engine.run()
    layout = lowered.layout
    for lane, cfg in enumerate(configs):
        got = out.stats.lane_dict(lane)
        want = run_job(Job("sma", kernel, 32, sma_config=cfg))
        assert got == {key: want[key] for key in got}
        run = run_on_sma(spec, inputs, cfg, True, lowered)
        for decl in spec.arrays:
            batch = out.dump_array(lane, layout.base(decl.name), decl.size)
            assert _digest(batch) == _digest(run.outputs[decl.name]), (
                f"{kernel}.{decl.name} memory image diverges at lane "
                f"{lane} (depth {depths[lane]})"
            )


# ---------------------------------------------------------------------------
# saturation collapse
# ---------------------------------------------------------------------------


def test_collapse_planner_picks_dominating_probe():
    configs = [_grid_config(8, depth, 8) for depth in (1, 4, 64)]
    configs.append(_grid_config(9, 2, 8))  # different residual class
    qlay = QueueLayout.from_config(configs[0])
    classes = _collapse_classes(configs, qlay)
    assert len(classes) == 1  # the latency-9 lane is a singleton
    probe, members, caps = classes[0]
    assert probe == 2 and members == [0, 1, 2]
    assert (caps[members.index(probe)] == caps.max(axis=0)).all()


def test_collapse_planner_requires_componentwise_dominator():
    # load depth and index depth pull in opposite directions: neither
    # lane dominates, so the planner must simulate both
    a = SMAConfig(queues=QueueConfig(load_queue_depth=4,
                                     index_queue_depth=1))
    b = SMAConfig(queues=QueueConfig(load_queue_depth=1,
                                     index_queue_depth=4))
    assert _collapse_classes([a, b], QueueLayout.from_config(a)) == []


def test_collapse_skips_dominated_lanes_bit_exactly(monkeypatch):
    jobs = BatchJob(
        "daxpy", 32, latencies=(8,), queue_depths=tuple(range(1, 33)),
    ).expand()
    lanes_simulated = []
    real_run = LaneEngine.run

    def spy(self, *args, **kwargs):
        lanes_simulated.append(self.now.shape[0])
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(LaneEngine, "run", spy)
    results = run_batch(jobs)
    assert len(results) == len(jobs)
    # the probe run plus the saturated residue must cover fewer lanes
    # than the grid: the deep-queue tail was served from the probe
    assert sum(lanes_simulated) < len(jobs)
    # ...and the served lanes are still bit-exact against the scalar
    # interpreter (first/middle/deepest, all collapse candidates)
    for lane in (0, 15, 31):
        assert results[lane] == run_job(jobs[lane])


# ---------------------------------------------------------------------------
# artifact cache
# ---------------------------------------------------------------------------


def test_one_compile_serves_the_whole_grid():
    clear_cache()
    jobs = BatchJob(
        "daxpy", 24, latencies=(2, 8, 32), queue_depths=(2, 8),
    ).expand()
    first = run_batch(jobs)
    assert cache_stats.compiles == 1
    assert run_batch(jobs) == first
    assert cache_stats.compiles == 1  # second sweep is all cache hits
    assert cache_stats.hits >= 1


def test_refused_program_runs_per_point(monkeypatch, caplog):
    """A program past the emitter's size guard gets no batch engine:
    ``run_batch`` maps none of its jobs, ``run_jobs`` runs them per
    point, and the refusal is logged once."""
    from repro.batch import emitter

    clear_cache()
    monkeypatch.setattr(emitter, "MAX_PROGRAM_LEN", 1)
    jobs = BatchJob(
        "daxpy", 24, latencies=(2, 8), queue_depths=(2, 8),
    ).expand()
    try:
        with caplog.at_level(logging.WARNING, logger="repro.batch"):
            assert run_batch(jobs) == {}
            assert cache_stats.unsupported == 1
            per_point = run_jobs(jobs)
            assert run_jobs(jobs, backend="batch") == per_point
        refusals = [r for r in caplog.records if r.name == "repro.batch"]
        assert len(refusals) == 1
        assert "too large" in refusals[0].getMessage()
    finally:
        clear_cache()  # drop the negative-cache entry


# ---------------------------------------------------------------------------
# cache interchange
# ---------------------------------------------------------------------------


def test_run_jobs_batch_workers_cache_interchangeable(tmp_path):
    """``batch_workers=1``, the keyword's one legal value, runs the lane
    groups in the driver, and their flushed entries serve a later
    per-point sweep verbatim."""
    jobs = BatchJob(
        "daxpy", 24, latencies=(2, 8), queue_depths=(1, 4),
    ).expand()
    batched = run_jobs(
        jobs, cache_dir=tmp_path, backend="batch", batch_workers=1
    )
    assert batched == run_jobs(jobs)
    with harness_policy() as stats:
        assert run_jobs(jobs, cache_dir=tmp_path) == batched
    assert stats.hits == len(jobs)


# ---------------------------------------------------------------------------
# dispatch regressions
# ---------------------------------------------------------------------------


def test_speculative_configs_stay_on_scalar_path():
    """Regression: an *enabled* speculative AP config used to slip into
    a lane group (the gate only looked for a non-None config object) and
    silently report non-speculative timing."""
    armed = SMAConfig(speculation=SpeculationConfig(accuracy=0.5))
    disarmed = SMAConfig(speculation=SpeculationConfig(accuracy=0.0))
    assert not batch_eligible(Job("sma", "tridiag", 24, sma_config=armed))
    assert batch_eligible(Job("sma", "tridiag", 24, sma_config=disarmed))
    jobs = [
        Job("sma", "tridiag", 24, sma_config=armed),
        Job("sma", "tridiag", 24, sma_config=disarmed),
    ]
    assert [i for group in plan_groups(jobs) for i in group] == [1]
    # end to end: the batch backend must hand the armed job to the
    # scalar path, so both backends report identical (speculative)
    # timing
    assert run_jobs(jobs, backend="batch") == run_jobs(jobs)


def test_lod_variant_jobs_get_distinct_lane_groups():
    """Regression: the group key ignored ``lod_variant``, so an
    ``addr``/``branch`` relowering could share a lane group with the
    default lowering and run the wrong program."""
    base = Job("sma", "tridiag", 24)
    variant = Job("sma", "tridiag", 24, lod_variant="branch")
    assert _group_key(base) != _group_key(variant)
    assert len(plan_groups([base, variant])) == 2
    results = run_batch([base, variant])
    assert results[0] == run_job(base)
    assert results[1] == run_job(variant)
    assert results[0] != results[1]  # the relowering times differently
