"""Metrics layer: stall attribution, registry, samplers, RunReport.

The load-bearing property here mirrors ``tests/test_fast_forward.py``:
attaching the metrics layer must NOT stop the event-horizon loop from
jumping, and
the stall-bucket totals, sampler summaries and every other observable
must stay bit-identical between naive ticking and closed-form replay.
The partition invariant — buckets sum to total cycles — is checked for
every kernel in the suite on both machines.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    CacheConfig,
    MemoryConfig,
    QueueConfig,
    ScalarConfig,
    SMAConfig,
)
from repro.core import SMAMachine
from repro.harness.jobs import Job, run_job
from repro.harness.runner import (
    _fit_memory,
    _load_inputs,
    run_on_scalar,
    run_on_sma,
)
from repro.kernels import all_kernels, get_kernel, lower_sma
from repro.memory import PrefetchConfig
from repro.metrics import (
    SCALAR_BUCKETS,
    SCHEMA_VERSION,
    STALL_BUCKETS,
    MetricsRegistry,
    StrideSampler,
    capture_reports,
    register_stats,
    validate_report,
)

GOLDEN = Path(__file__).parent / "golden_runreport.json"

#: same structurally diverse representatives as the fast-forward tests
SUITE_REPS = ("daxpy", "hydro", "tridiag", "computed_gather", "pic_gather")


def _machine(kernel, inputs, latency, depth, banks):
    lowered = lower_sma(kernel)
    queues = QueueConfig(
        load_queue_depth=depth,
        store_data_depth=depth,
        store_addr_depth=depth,
        index_queue_depth=depth,
    )
    mem = MemoryConfig(
        latency=latency, bank_busy=max(1, latency // 2), num_banks=banks
    )
    cfg = SMAConfig(memory=_fit_memory(mem, lowered.layout), queues=queues)
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    return machine


def _metered_run(kernel, inputs, latency, depth, banks, fast):
    """One run with metrics + an off-stride sampler attached; returns
    everything the two simulation modes must agree on."""
    machine = _machine(kernel, inputs, latency, depth, banks)
    mm = machine.attach_metrics(
        samplers=(
            StrideSampler(
                "lq", lambda m: sum(map(len, m._load_slots)), stride=5
            ),
        )
    )
    result = machine.run(scheduler="event-horizon" if fast else "naive")
    return {
        "result": result.to_dict(),
        "buckets": mm.stall_breakdown(),
        "samplers": mm.registry.sampler_values(),
        "counters": mm.registry.counter_values(),
    }


# ---------------------------------------------------------------------------
# the partition invariant: buckets sum to cycles, everywhere
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", all_kernels(), ids=lambda s: s.name)
def test_sma_buckets_partition_cycles_across_suite(spec):
    kernel, inputs = spec.instantiate(32)
    run = run_on_sma(kernel, inputs, metrics=True)
    breakdown = run.report.stall_breakdown
    assert tuple(breakdown) == STALL_BUCKETS
    assert sum(breakdown.values()) == run.cycles
    assert run.result.stall_breakdown == breakdown


@pytest.mark.parametrize("spec", all_kernels(), ids=lambda s: s.name)
def test_scalar_buckets_partition_cycles_across_suite(spec):
    kernel, inputs = spec.instantiate(32)
    run = run_on_scalar(kernel, inputs, metrics=True)
    breakdown = run.report.stall_breakdown
    assert tuple(breakdown) == SCALAR_BUCKETS
    assert sum(breakdown.values()) == run.cycles


@pytest.mark.parametrize("cache,prefetch", [
    (None, None),
    (CacheConfig(), None),
    (CacheConfig(), PrefetchConfig("stride")),
])
def test_scalar_variants_partition_cycles(cache, prefetch):
    kernel, inputs = get_kernel("daxpy").instantiate(64)
    cfg = ScalarConfig(cache=cache, prefetch=prefetch)
    run = run_on_scalar(kernel, inputs, cfg, metrics=True)
    assert sum(run.report.stall_breakdown.values()) == run.cycles
    assert sum(run.result.stall_breakdown().values()) == run.result.cycles


def test_lod_kernel_attributes_to_loss_of_decoupling():
    """computed_gather serializes the AP behind the EP; the breakdown
    must say so (this is the R-T4 story told per cycle)."""
    kernel, inputs = get_kernel("computed_gather").instantiate(64)
    run = run_on_sma(kernel, inputs, metrics=True)
    breakdown = run.report.stall_breakdown
    assert breakdown["loss_of_decoupling"] == max(breakdown.values())


# ---------------------------------------------------------------------------
# fast-forward equivalence with metrics attached
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SUITE_REPS)
@pytest.mark.parametrize("latency", (2, 8, 64))
@pytest.mark.parametrize("depth", (1, 4, 16))
def test_metrics_identical_under_fast_forward(name, latency, depth):
    kernel, inputs = get_kernel(name).instantiate(32)
    naive = _metered_run(kernel, inputs, latency, depth, 8, fast=False)
    fast = _metered_run(kernel, inputs, latency, depth, 8, fast=True)
    assert naive == fast


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(SUITE_REPS),
    latency=st.sampled_from((2, 4, 8, 16, 32, 64)),
    depth=st.sampled_from((1, 2, 4, 16)),
    banks=st.sampled_from((1, 2, 8)),
    seed=st.integers(0, 2**31),
)
def test_metrics_identical_on_random_instances(
    name, latency, depth, banks, seed
):
    # the spec's own instantiation keeps index arrays valid while the
    # seed varies the data (and hence bank-conflict timing)
    kernel, inputs = get_kernel(name).instantiate(24, seed=seed)
    naive = _metered_run(kernel, inputs, latency, depth, banks, fast=False)
    fast = _metered_run(kernel, inputs, latency, depth, banks, fast=True)
    assert naive == fast


def test_metrics_do_not_disable_the_fast_path():
    """With metrics attached the machine must still *skip* cycles: the
    number of stepped (template) cycles stays well below the cycle count,
    while the buckets match naive ticking exactly."""
    kernel, inputs = get_kernel("daxpy").instantiate(32)
    machine = _machine(kernel, inputs, latency=64, depth=8, banks=8)
    mm = machine.attach_metrics()
    stepped = 0
    original = mm.on_cycle

    def counting_on_cycle(m, cycle):
        nonlocal stepped
        stepped += 1
        original(m, cycle)

    # the metrics hook runs once per live (stepped) cycle in either loop
    mm.on_cycle = counting_on_cycle
    result = machine.run(scheduler="event-horizon")
    assert stepped < result.cycles  # the replay actually engaged
    assert sum(mm.buckets.values()) == result.cycles

    reference = _machine(kernel, inputs, latency=64, depth=8, banks=8)
    ref_mm = reference.attach_metrics()
    reference.run(scheduler="naive")
    assert mm.buckets == ref_mm.buckets


# ---------------------------------------------------------------------------
# StrideSampler closed-form replay arithmetic
# ---------------------------------------------------------------------------


class TestStrideSampler:
    @pytest.mark.parametrize("stride", (1, 3, 5, 64))
    @pytest.mark.parametrize("start,count", [
        (0, 1), (0, 17), (3, 1), (3, 2), (7, 100), (64, 64), (65, 63),
    ])
    def test_replay_matches_naive_firing(self, stride, start, count):
        probe = lambda m: 7  # constant, as in a fully-idle window
        naive = StrideSampler("s", probe, stride=stride)
        for cycle in range(start, start + count):
            naive.on_cycle(None, cycle)
        replayed = StrideSampler("s", probe, stride=stride)
        replayed.on_replay(None, start, count)
        assert replayed.summary() == naive.summary()

    def test_summary_fields(self):
        s = StrideSampler("occ", lambda m: m, stride=2)
        for cycle, value in enumerate((5, 0, 3, 0, 1, 0)):
            s.on_cycle(value, cycle)
        assert s.summary() == {
            "stride": 2, "samples": 3, "mean": 3.0, "max": 5
        }

    def test_empty_sampler_mean_is_zero(self):
        assert StrideSampler("x", lambda m: 1).mean == 0.0

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            StrideSampler("x", lambda m: 1, stride=0)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass
class _FakeStats:
    events: int = 0
    ratio: float = 0.0
    histogram: dict = field(default_factory=dict)


class TestRegistry:
    def test_counters_are_live_getters(self):
        reg = MetricsRegistry()
        stats = _FakeStats()
        register_stats(reg, "fake", stats)
        assert reg.counter_values()["fake.events"] == 0
        stats.events = 9
        stats.histogram[3] = 2
        assert reg.counter_values()["fake.events"] == 9
        assert reg.histogram_values()["fake.histogram"] == {"3": 2}

    def test_duplicate_names_rejected(self):
        reg = MetricsRegistry()
        reg.register_counter("a.b", lambda: 1)
        with pytest.raises(ValueError, match="duplicate"):
            reg.register_counter("a.b", lambda: 2)
        reg.register_histogram("a.h", dict)
        with pytest.raises(ValueError, match="duplicate"):
            reg.register_histogram("a.h", dict)
        reg.add_sampler(StrideSampler("s", lambda m: 0))
        with pytest.raises(ValueError, match="duplicate"):
            reg.add_sampler(StrideSampler("s", lambda m: 0))

    def test_sma_registry_covers_every_component(self):
        kernel, inputs = get_kernel("daxpy").instantiate(16)
        run = run_on_sma(kernel, inputs, metrics=True)
        counters = run.report.counters
        for prefix in ("ap.", "ep.", "engine.", "store_unit.",
                       "memory.", "queue.", "machine.cycles"):
            assert any(n.startswith(prefix) for n in counters), prefix
        assert counters["machine.cycles"] == run.cycles
        assert "memory.per_bank_accesses" in run.report.histograms


# ---------------------------------------------------------------------------
# RunReport schema (the golden file CI guards)
# ---------------------------------------------------------------------------


class TestRunReportSchema:
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_golden_file_matches_code(self):
        golden = self.golden()
        assert golden["schema_version"] == SCHEMA_VERSION
        assert tuple(golden["sma_buckets"]) == STALL_BUCKETS
        assert tuple(golden["scalar_buckets"]) == SCALAR_BUCKETS

    @pytest.mark.parametrize("machine", ("sma", "scalar"))
    def test_live_reports_validate_and_match_golden(self, machine):
        kernel, inputs = get_kernel("hydro").instantiate(32)
        runner = run_on_sma if machine == "sma" else run_on_scalar
        report = runner(kernel, inputs, metrics=True).report
        report.n = 32
        data = json.loads(report.to_json())
        assert validate_report(data) == []
        golden = self.golden()
        assert sorted(data) == golden["required_keys"]
        buckets = golden[f"{machine}_buckets"]
        assert sorted(data["stall_breakdown"]) == sorted(buckets)

    def test_validator_rejects_drift(self):
        kernel, inputs = get_kernel("daxpy").instantiate(16)
        data = run_on_sma(kernel, inputs, metrics=True).report.to_dict()
        assert validate_report(data) == []
        broken = dict(data)
        del broken["stall_breakdown"]
        assert validate_report(broken)
        skewed = dict(data)
        skewed["cycles"] = data["cycles"] + 1
        assert any("sum" in p for p in validate_report(skewed))
        old = dict(data)
        old["schema_version"] = SCHEMA_VERSION + 1
        assert any("schema_version" in p for p in validate_report(old))

    def test_csv_export_round_trips_buckets(self):
        kernel, inputs = get_kernel("daxpy").instantiate(16)
        report = run_on_sma(kernel, inputs, metrics=True).report
        rows = dict(
            line.split(",", 1)
            for line in report.to_csv().strip().splitlines()[1:]
        )
        assert int(rows["cycles"]) == report.cycles
        for bucket, cycles in report.stall_breakdown.items():
            assert int(rows[f"stall.{bucket}"]) == cycles

    def test_breakdown_text_shows_total(self):
        kernel, inputs = get_kernel("daxpy").instantiate(16)
        report = run_on_sma(kernel, inputs, metrics=True).report
        text = report.breakdown_text()
        assert "100.00%" in text
        for bucket in STALL_BUCKETS:
            assert bucket in text


# ---------------------------------------------------------------------------
# capture + job layer integration
# ---------------------------------------------------------------------------


class TestCapture:
    def test_jobs_route_reports_into_capture(self, tmp_path):
        with capture_reports(tmp_path) as collector:
            out = run_job(Job("sma", "daxpy", n=16))
            assert sum(out["stall_breakdown"].values()) == out["cycles"]
            run_job(Job("scalar", "daxpy", n=16))
        assert [r.machine for r in collector.reports] == ["sma", "scalar"]
        assert all(r.n == 16 for r in collector.reports)
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 2
        for path in files:
            assert validate_report(json.loads(path.read_text())) == []

    def test_no_capture_no_report(self):
        out = run_job(Job("sma", "daxpy", n=16))
        assert "stall_breakdown" not in out

    def test_nested_capture_rejected(self):
        with capture_reports():
            with pytest.raises(RuntimeError, match="already active"):
                with capture_reports():
                    pass  # pragma: no cover

    def test_run_jobs_refuses_a_cache_beside_a_capture(self, tmp_path):
        # a hit yields no report, and a captured result would be filed
        # under the key a plain run reads
        from repro.harness.parallel import run_jobs

        with capture_reports() as collector:
            with pytest.raises(ValueError, match="RunReport capture"):
                run_jobs([Job("sma", "daxpy", n=16)],
                         cache_dir=tmp_path / "cache")
        assert collector.reports == []
        assert not (tmp_path / "cache").exists()

    def test_run_jobs_refuses_a_pool_beside_a_capture(self):
        # pool workers add their reports to their own copy of the
        # collector
        from repro.harness.parallel import run_jobs

        with capture_reports() as collector:
            with pytest.raises(ValueError, match="workers=2"):
                run_jobs([Job("sma", "daxpy", n=16),
                          Job("scalar", "daxpy", n=16)], workers=2)
        assert collector.reports == []


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCLI:
    def test_report_command_writes_exports(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "report", "daxpy", "--n", "32", "--out", str(tmp_path)
        ]) == 0
        shown = capsys.readouterr().out
        assert "loss_of_decoupling" in shown
        assert "100.00%" in shown
        written = {p.name for p in tmp_path.iterdir()}
        assert "runreport-sma-daxpy.json" in written
        assert "runreport-sma-daxpy.csv" in written
        data = json.loads(
            (tmp_path / "runreport-sma-daxpy.json").read_text()
        )
        assert validate_report(data) == []

    def test_experiment_metrics_smoke(self, tmp_path, capsys):
        """The CI smoke step, in miniature: a small R-T2 with --metrics
        must leave valid RunReports behind."""
        from repro.cli import main

        out_dir = tmp_path / "reports"
        assert main([
            "experiment", "R-T2", "--n", "16",
            "--metrics", "--metrics-dir", str(out_dir),
        ]) == 0
        assert "RunReport" in capsys.readouterr().out
        files = sorted(out_dir.glob("*.json"))
        assert files
        for path in files:
            assert validate_report(json.loads(path.read_text())) == []
