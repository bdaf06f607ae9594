"""Span recorder for the traced benchmark run.

It works from outside the program: :func:`install` replaces the public
entry points of each layer (module functions wherever a ``repro``
module holds them, and class methods on the class) with wrappers that
record one span per call.  Only a traced pass calls :func:`install`, so
untraced passes run the program with no wrapper at all.

A span is ``(id, name, start, end, parent, rt, phase, attrs)``: the
parent is the innermost open span of the same thread, ``rt`` the
round-trip id inherited from the enclosing ``bench.rt`` span, and
``phase`` the timed phase the benchmark declared (spans are recorded
only inside one).  Spans stay in memory until :meth:`Recorder.dump`.

:func:`layer_metrics` turns the spans into the per-layer metrics.  A
layer's time is its *self* time — span duration minus the time its
direct child spans cover — so the layers partition the traced wall
time instead of double-counting nested calls.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: SMAMachine.run / SMACluster.run calls nested inside another core run
#: (the perfect-predictor oracle pre-run of a speculative machine) are
#: part of the outer run, not a new layer boundary
_CORE_RUN = "core.run"


class Recorder:
    """In-memory span store, one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, rt: str | None = None, group=None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rt is None and parent is not None:
            rt = parent["rt"]
        entry = {"id": next(self._ids), "rt": rt, "group": group}
        stack.append(entry)
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((
                entry["id"], name, start, end,
                parent["id"] if parent is not None else None,
                rt, self.phase, attrs,
            ))

    @contextmanager
    def timed(self, phase: str):
        """Declare a timed phase; spans are recorded only inside one."""
        self.phase = phase
        try:
            yield
        finally:
            self.phase = None

    def dump(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "rt", "phase",
                  "attrs")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def _traced(recorder: Recorder, fn, name, after=None, group=None):
    """Wrap ``fn`` so each call inside a timed phase records a span.

    ``name`` is a span name or a ``(args, kwargs) -> name`` classifier;
    ``after(args, kwargs, result)`` returns attributes read off the
    call's result (cycles simulated, lanes stepped).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.phase is None:
            return fn(*args, **kwargs)
        current = recorder.current()
        if group is not None and current is not None \
                and current["group"] == group:
            return fn(*args, **kwargs)
        label = name(args, kwargs) if callable(name) else name
        with recorder.span(label, group=group) as attrs:
            result = fn(*args, **kwargs)
            if after is not None:
                attrs.update(after(args, kwargs, result))
            return result

    return wrapper


def _patch_function(original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` in every loaded ``repro``
    module that holds it (re-exports and ``from x import f`` copies)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _sma_kind(args, kwargs) -> str:
    machine = args[0]
    observer = kwargs.get("observer", args[3] if len(args) > 3 else None)
    if observer is not None:
        return "core.observed"
    spec = machine.config.speculation
    if spec is not None and spec.enabled:
        return "core.spec"
    return "core.sma"


def _cycles(args, kwargs, result) -> dict:
    return {"cycles": int(result.cycles)}


def install(recorder: Recorder) -> None:
    """Wrap each layer's public calls (see the README's layer table)."""
    import repro.batch.cache as batch_cache
    import repro.batch.dispatch as dispatch
    import repro.harness.experiments as experiments
    import repro.harness.jobs as jobs
    import repro.harness.parallel as parallel
    import repro.kernels as kernels
    from repro.baseline.scalar_machine import ScalarMachine
    from repro.baseline.vector_machine import VectorMachine
    from repro.batch.engine import LaneEngine
    from repro.core.cluster import SMACluster
    from repro.core.machine import SMAMachine
    from repro.kernels.suite import KernelSpec
    from repro.service.client import ServiceClient

    def n_jobs(args, kwargs, result) -> dict:
        return {"jobs": len(args[0])}

    functions = [
        (experiments.run_experiment, "harness.experiment",
         lambda a, k, r: {"eid": a[0]}, None),
        (parallel.run_jobs, "harness.run_jobs", n_jobs, None),
        (jobs.run_job, "harness.run_job", None, None),
        (kernels.lower_sma, "kernels.lower", None, None),
        (kernels.lower_scalar, "kernels.lower", None, None),
        (kernels.lower_vector, "kernels.lower", None, None),
        (kernels.run_reference, "kernels.reference", None, None),
        (dispatch.run_batch, "batch.run_batch", None, None),
        (dispatch.run_group, "batch.group",
         lambda a, k, r: {"lanes": len(a[0])}, None),
        (batch_cache.get_or_compile, "batch.compile", None, None),
    ]
    for original, name, after, group in functions:
        _patch_function(original, _traced(recorder, original, name, after,
                                          group))

    methods = [
        (KernelSpec, "instantiate", "kernels.instantiate", None, None),
        (SMAMachine, "__init__", "core.build", None, None),
        (SMAMachine, "run", _sma_kind, _cycles, _CORE_RUN),
        (SMACluster, "run", "core.cluster", _cycles, _CORE_RUN),
        (ScalarMachine, "run", "baseline.scalar", _cycles, None),
        (VectorMachine, "run", "baseline.vector", None, None),
        (LaneEngine, "run", "batch.engine",
         lambda a, k, r: {"lanes": len(a[0].now)}, None),
        (ServiceClient, "submit", "service.submit",
         lambda a, k, r: {"jobs": len(a[1])}, None),
        (ServiceClient, "job_status", "service.wait", None, None),
    ]
    for cls, attr, name, after, group in methods:
        original = getattr(cls, attr)
        setattr(cls, attr, _traced(recorder, original, name, after, group))


def _per(total_s: float, count: float) -> float:
    """Microseconds per unit of work; 0 when the layer did no work."""
    return total_s / count * 1e6 if count else 0.0


def layer_metrics(spans: list[tuple], counters: dict,
                  experiment_ids) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``counters`` holds what the spans cannot see: harness
    :class:`~repro.harness.parallel.SweepStats` and batch compile-cache
    deltas, ``/v1/stats`` deltas and round-trip counts.  Every layer
    metric is present; a layer that did no work reports 0.
    """
    by_id = {s[0]: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            covered[s[4]] += s[3] - s[2]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    attr_sum: dict[tuple, float] = defaultdict(float)
    exp_s: dict[str, float] = defaultdict(float)
    grid_s: dict[str, float] = defaultdict(float)
    resume_s = 0.0
    for s in spans:
        sid, name, start, end, parent, _rt, phase, attrs = s
        duration = end - start
        calls[name] += 1
        incl_s[name] += duration
        self_s[name] += duration - covered[sid]
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                attr_sum[name, key] += value
        if name == "harness.experiment" and phase == "cold":
            exp_s[attrs["eid"]] += duration
        if name == "harness.run_jobs" and phase == "resume":
            resume_s += duration
        if name == "batch.group":
            up = by_id.get(parent)
            while up is not None and "shape" not in up[7]:
                up = by_id.get(up[4])
            if up is not None:
                grid_s[up[7]["shape"]] += duration

    m: dict[str, float] = {}
    for eid in experiment_ids:
        m[f"harness.exp.{eid}_s"] = exp_s.get(eid, 0.0)
    m["harness.jobs"] = attr_sum["harness.run_jobs", "jobs"]
    for key in ("executed", "cache_hits", "flushed"):
        m[f"harness.{key}"] = counters.get(f"harness.{key}", 0)
    # run_batch's own time is the harness landing callback (cache
    # flush per result) plus group planning: harness work done on the
    # batch path
    m["harness.self_s"] = self_s["harness.run_jobs"] \
        + self_s["batch.run_batch"]
    m["harness.resume_s"] = resume_s

    m["kernels.lower_calls"] = calls["kernels.lower"]
    m["kernels.lower_s"] = self_s["kernels.lower"]
    m["kernels.reference_calls"] = calls["kernels.reference"]
    m["kernels.reference_s"] = self_s["kernels.reference"]
    m["kernels.instantiate_s"] = self_s["kernels.instantiate"]

    for kind in ("sma", "spec", "cluster"):
        span = f"core.{kind}"
        cycles = attr_sum[span, "cycles"]
        m[f"core.{kind}_runs"] = calls[span]
        m[f"core.{kind}_s"] = self_s[span]
        m[f"core.{kind}_cycles"] = cycles
        m[f"core.{kind}_us_per_cycle"] = _per(self_s[span], cycles)
    m["core.observed_s"] = self_s["core.observed"]
    m["core.build_calls"] = calls["core.build"]
    m["core.build_s"] = self_s["core.build"]

    cycles = attr_sum["baseline.scalar", "cycles"]
    m["baseline.scalar_runs"] = calls["baseline.scalar"]
    m["baseline.scalar_s"] = self_s["baseline.scalar"]
    m["baseline.scalar_cycles"] = cycles
    m["baseline.scalar_us_per_cycle"] = _per(self_s["baseline.scalar"],
                                             cycles)
    m["baseline.vector_runs"] = calls["baseline.vector"]
    m["baseline.vector_s"] = self_s["baseline.vector"]

    lanes = attr_sum["batch.group", "lanes"]
    simulated = attr_sum["batch.engine", "lanes"]
    m["batch.lanes"] = lanes
    m["batch.lanes_simulated"] = simulated
    m["batch.collapse_share"] = 1.0 - simulated / lanes if lanes else 0.0
    m["batch.engine_runs"] = calls["batch.engine"]
    m["batch.engine_s"] = self_s["batch.engine"]
    m["batch.engine_us_per_lane"] = _per(self_s["batch.engine"], simulated)
    for key in ("compiles", "compile_hits", "unsupported"):
        m[f"batch.{key}"] = counters.get(f"batch.{key}", 0)
    m["batch.compile_s"] = self_s["batch.compile"]
    m["batch.group_s"] = incl_s["batch.group"]
    # run_group's own time: staging and result assembly, i.e. the group
    # minus its engine, compile and lowering children
    m["batch.assemble_s"] = self_s["batch.group"]
    m["batch.depth_grid_s"] = grid_s.get("depth", 0.0)
    m["batch.bank_grid_s"] = grid_s.get("bank", 0.0)

    m["service.http_requests"] = calls["service.submit"] \
        + calls["service.wait"]
    m["service.submit_s"] = incl_s["service.submit"]
    m["service.wait_s"] = incl_s["service.wait"]
    for key in ("cold_rt_n", "cached_rt_n", "executed", "hits",
                "coalesced", "rejected", "retried", "store_puts",
                "store_gets"):
        m[f"service.{key}"] = counters.get(f"service.{key}", 0)
    submitted = attr_sum["service.submit", "jobs"]
    m["service.reuse_share"] = (
        (m["service.hits"] + m["service.coalesced"]) / submitted
        if submitted else 0.0
    )
    return m
