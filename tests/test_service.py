"""The sweep service: protocol round-trips, the result store it shares
with the sweep harness, the coalescing scheduler, and the HTTP server
end to end.

The e2e class runs a real ``SweepServer`` on a loopback socket with
real process-pool workers and drives it from blocking clients in
threads — concurrent duplicate-heavy submissions must coalesce, results
must be byte-identical to serial :func:`repro.harness.jobs.run_job`,
and a SIGKILLed pool worker must cost at most one retry (never a wrong
or lost result).  A ``run_jobs`` cache directory and a server's store
are the same directory, and neither front end serves a tampered or torn
entry.
"""

import asyncio
import copy
import json
import re
import signal
import socket
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, is_dataclass
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    CacheConfig,
    MemoryConfig,
    PrefetchConfig,
    QueueConfig,
    ScalarConfig,
    SMAConfig,
    SpeculationConfig,
)
from repro.harness import store as store_module
from repro.harness.faults import FaultSpec
from repro.harness.jobs import Job, run_job
from repro.harness.parallel import (
    HarnessPolicy,
    SweepError,
    harness_policy,
    job_key,
    run_jobs,
)
from repro.harness.store import SUFFIX, ResultStore
from repro.service import (
    JobScheduler,
    ProtocolError,
    QueueFullError,
    SchedulerDraining,
    ServiceClient,
    ServiceError,
    SweepServer,
    job_from_spec,
    job_to_spec,
)
from repro.service.protocol import CAPS, jobs_from_payload
from repro.service.server import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES


def canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


class TestProtocol:
    JOBS = [
        Job("sma", "daxpy", 64, check=True),
        Job("sma", "pic_gather", 48, lod_variant="addr"),
        Job("sma-nostream", "tridiag", 32, lod_variant="branch"),
        Job("scalar", "hydro", 32,
            scalar_config=ScalarConfig(memory=MemoryConfig(latency=16))),
        Job("cluster", "daxpy", 32, nodes=3, seed=7),
        Job("vector", "daxpy", 64,
            memory_config=MemoryConfig(latency=4)),
        Job("sma", "daxpy", 64,
            sma_config=SMAConfig(
                memory=MemoryConfig(latency=32, num_banks=16),
                queues=QueueConfig(load_queue_depth=4),
                speculation=SpeculationConfig(accuracy=0.5, seed=3),
            )),
    ]

    @pytest.mark.parametrize(
        "job", JOBS, ids=lambda j: f"{j.machine}-{j.kernel}"
    )
    def test_spec_round_trips(self, job):
        spec = job_to_spec(job)
        json.loads(json.dumps(spec))  # JSON-clean
        rebuilt = job_from_spec(json.loads(json.dumps(spec)))
        assert rebuilt == job
        # the canonical form job_key() hashes survives the wire
        assert repr(rebuilt) == repr(job)
        assert job_key(rebuilt) == job_key(job)

    def test_unknown_field_rejected(self):
        spec = job_to_spec(Job("sma", "daxpy", 64))
        spec["warp_factor"] = 9
        with pytest.raises(ProtocolError, match="warp_factor"):
            job_from_spec(spec)

    def test_invalid_value_rejected(self):
        spec = job_to_spec(Job("sma", "daxpy", 64))
        spec["machine"] = "abacus"
        with pytest.raises(ProtocolError, match="invalid Job spec"):
            job_from_spec(spec)

    @pytest.mark.parametrize("change, message", [
        ({"kernel": "nope"}, "unknown kernel 'nope'"),
        ({"n": -5}, "job n must"),
        ({"n": 0}, "job n must"),
        ({"n": 2.5}, "job n must"),
        ({"n": "64"}, "job n must"),
        ({"seed": "x"}, "job seed must"),
        ({"check": "yes"}, "job check must"),
        ({"nodes": 0}, "job nodes must"),
        ({"buckets": 0}, "job buckets must"),
        ({"sma_config": {"memory": {"latency": 2.5}}},
         "MemoryConfig latency must be an int"),
        ({"sma_config": {"memory": {"size": 70000.5}}},
         "MemoryConfig size must be an int"),
        ({"sma_config": {"memory": {"num_banks": 8.0}}},
         "MemoryConfig num_banks must be an int"),
        ({"sma_config": {"num_load_queues": 8.0}},
         "SMAConfig num_load_queues must be an int"),
        ({"sma_config": {"max_streams": True}},
         "SMAConfig max_streams must be an int"),
        ({"sma_config": {"speculation": {"accuracy": True}}},
         "SpeculationConfig accuracy must be a float"),
        ({"sma_config": {"faults": None}},
         "unknown SMAConfig field(s): ['faults']"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else "")
    def test_malformed_spec_refused(self, change, message):
        spec = dict(job_to_spec(Job("sma", "daxpy", 64)), **change)
        with pytest.raises(ProtocolError, match=re.escape(message)):
            job_from_spec(spec)

    def test_nested_config_validation_surfaces(self):
        spec = job_to_spec(Job("sma", "daxpy", 64,
                               sma_config=SMAConfig()))
        spec["sma_config"]["memory"] = {"latency": -1}
        with pytest.raises(ProtocolError):
            job_from_spec(spec)

    def test_every_suite_and_benchmark_job_round_trips(self, tmp_path):
        """Every job the paper suite plans, and every job the benchmark's
        grid-sweep and service-mix workloads build, is within the caps
        and round-trips (paper-suite runs the suite plan itself)."""
        from pathlib import Path
        from types import SimpleNamespace

        import repro.config as config
        from repro.harness import experiments, jobs as jobs_module
        from perfbench.workloads import Context, GridSweep, ServiceMix

        jobs = [job for plan in experiments.EXPERIMENTS.values()
                for job in next(plan())]
        root = Path(__file__).resolve().parents[1]
        grid = GridSweep(Context(seed=1, tmp=tmp_path, root=root))
        jobs += [job for _shape, sweep in grid.sweeps for job in sweep]
        mix = SimpleNamespace(config=config, jobs=jobs_module,
                              N=ServiceMix.N)
        jobs += [
            job for kernel in ServiceMix.KERNELS
            for latency in ServiceMix.LATENCIES
            for depth in ServiceMix.DEPTHS
            for job in ServiceMix._slice(mix, kernel, latency, depth, 7)
        ]
        for job in jobs:
            spec = json.loads(json.dumps(job_to_spec(job)))
            assert job_from_spec(spec) == job

    @staticmethod
    def _capped_paths():
        """(spec path, cap) for every capped field, each config field at
        every place a job spec can hold its config."""
        places = {
            Job: [()],
            MemoryConfig: [("sma_config", "memory"),
                           ("scalar_config", "memory"), ("memory_config",)],
            QueueConfig: [("sma_config", "queues")],
            SMAConfig: [("sma_config",)],
            CacheConfig: [("scalar_config", "cache")],
            PrefetchConfig: [("scalar_config", "prefetch")],
        }
        return [
            pytest.param(place + (name,), cap,
                         id=".".join(place + (name,)))
            for (owner, name), cap in CAPS.items()
            for place in places[owner]
        ]

    @pytest.mark.parametrize("path, cap", _capped_paths.__func__())
    def test_fields_beyond_their_cap_refused(self, path, cap):
        full = Job("sma", "daxpy", 64, sma_config=SMAConfig(),
                   scalar_config=ScalarConfig(cache=CacheConfig(),
                                              prefetch=PrefetchConfig()),
                   memory_config=MemoryConfig())
        *parents, name = path

        def spec_with(value):
            spec = job_to_spec(full)
            node = spec
            for parent in parents:
                node = node[parent]
            node[name] = value
            return spec

        job_from_spec(spec_with(cap))
        with pytest.raises(ProtocolError, match="exceeds its cap"):
            job_from_spec(spec_with(cap + 1))
        # NaN passes every ordered range check but the cap's
        with pytest.raises(ProtocolError):
            job_from_spec(spec_with(float("nan")))

    def test_payload_shape_enforced(self):
        with pytest.raises(ProtocolError, match='"jobs"'):
            jobs_from_payload({"jobs": []})
        with pytest.raises(ProtocolError, match='"jobs"'):
            jobs_from_payload([1, 2])
        jobs = jobs_from_payload(
            {"jobs": [job_to_spec(j) for j in self.JOBS[:2]]}
        )
        assert jobs == self.JOBS[:2]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_suite_payloads_decode_or_refuse(self, data):
        """A suite spec with one field dropped, one unknown field added or
        one field set to a random JSON value either raises
        :class:`ProtocolError` or decodes to jobs that round-trip through
        strict JSON, hold an int in every field declared ``int`` and a
        float in every field declared ``float``, and stay within every
        cap.  No job runs."""
        spec = copy.deepcopy(data.draw(st.sampled_from(_suite_specs())))
        node = data.draw(st.sampled_from(_objects(spec)))
        action = data.draw(st.sampled_from(("drop", "add", "set")))
        if action == "add":
            key = data.draw(st.text(max_size=8).filter(
                lambda k: k not in node))
        elif node:
            key = data.draw(st.sampled_from(sorted(node)))
        else:
            return
        if action == "drop":
            del node[key]
        else:
            node[key] = data.draw(_JSON_VALUES)
        try:
            jobs = jobs_from_payload({"jobs": [spec]})
        except ProtocolError:
            return
        for job in jobs:
            text = json.dumps(job_to_spec(job), allow_nan=False)
            assert job_from_spec(json.loads(text)) == job
            _assert_typed_within_caps(job)


@lru_cache(maxsize=None)
def _suite_specs() -> tuple:
    """The spec of every job the paper suite plans, deduplicated."""
    from repro.harness import experiments

    specs = {}
    for plan in experiments.EXPERIMENTS.values():
        for job in next(plan()):
            specs.setdefault(job, job_to_spec(job))
    return tuple(specs.values())


def _objects(spec: dict) -> list:
    """``spec`` and every object nested in it."""
    found = [spec]
    for value in spec.values():
        if isinstance(value, dict):
            found += _objects(value)
    return found


_JSON_SCALARS = (
    st.none(), st.booleans(), st.text(max_size=8),
    st.integers(), st.sampled_from((-1, 0, 10**9, 10**12, 2**64)),
    st.floats(), st.sampled_from((float("nan"), 2.5, 8.0)),
)
#: a JSON scalar, list or object, mostly the scalars a count field must
#: refuse
_JSON_VALUES = st.one_of(
    *_JSON_SCALARS,
    st.lists(st.one_of(*_JSON_SCALARS), max_size=3),
    st.dictionaries(st.text(max_size=8), st.one_of(*_JSON_SCALARS),
                    max_size=3),
)


def _assert_typed_within_caps(obj) -> None:
    """Every field of the dataclass tree ``obj`` declared ``int`` holds
    an int, every field declared ``float`` a float, and every capped
    field is within :data:`CAPS`."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            _assert_typed_within_caps(value)
        declared = f.type.removesuffix(" | None")
        if declared in ("int", "float") and not (
            value is None and f.type.endswith("| None")
        ):
            assert type(value).__name__ == declared, \
                (type(obj).__name__, f.name, value)
        cap = CAPS.get((type(obj), f.name))
        if cap is not None and value is not None:
            assert value <= cap, (type(obj).__name__, f.name, value)


def _tamper(path):
    """Edit the last digit of the entry's first cycle count in place:
    the entry still parses, but no longer holds what was stored."""
    text = path.read_text()
    edited = re.sub(
        r'("cycles": \d*)(\d)',
        lambda m: m[1] + str((int(m[2]) + 1) % 10), text, count=1,
    )
    assert edited != text
    path.write_text(edited)


def _tear(path):
    """Cut the entry to its first half, as a torn write leaves it."""
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


class TestResultStore:
    KEY = job_key(Job("sma", "daxpy", 32))

    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = run_job(Job("sma", "daxpy", 32))
        path = store.put(self.KEY, result)
        assert path == store.root / (self.KEY + SUFFIX)
        got = store.get(self.KEY)
        assert got == result
        assert list(got) == list(result)  # insertion order kept
        assert self.KEY in store and "f" * 64 not in store
        assert len(store) == 1
        assert (store.stats.puts, store.stats.gets) == (1, 1)
        # the entry is the digest line, then exactly json.dumps(result)
        digest, body = path.read_text().split("\n", 1)
        assert body == json.dumps(result)
        assert len(digest) == 64

    def test_tampered_entry_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        path = store.put(self.KEY, {"cycles": 123})
        _tamper(path)
        assert store.get(self.KEY) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert store.stats.quarantined == 1
        assert self.KEY not in store and len(store) == 0
        # the quarantined entry is out of the way: a fresh put works
        store.put(self.KEY, {"cycles": 123})
        assert store.get(self.KEY) == {"cycles": 123}

    def test_torn_entry_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        # cut after the digest line, inside it, and to nothing
        for n, cut in enumerate([lambda d: d[: len(d) // 2],
                                 lambda d: d[:40], lambda d: b""]):
            key = f"{n:064x}"
            path = store.put(key, {"cycles": 123, "trace": [1] * 64})
            path.write_bytes(cut(path.read_bytes()))
            assert store.get(key) is None
            assert path.with_name(path.name + ".corrupt").exists()
            assert store.stats.quarantined == n + 1

    def test_refused_keys_never_reach_the_filesystem(self, tmp_path,
                                                     monkeypatch):
        store = ResultStore(tmp_path / "store")

        def touched(*args, **kwargs):
            raise AssertionError("filesystem touched for a refused key")

        monkeypatch.setattr(store_module, "open", touched, raising=False)
        monkeypatch.setattr(store_module.os.path, "isfile", touched)
        monkeypatch.setattr(store_module.tempfile, "mkstemp", touched)
        for key in ["../victim", "../../victim", self.KEY[:63],
                    self.KEY.upper(), self.KEY + "\n", "", "k1"]:
            assert store.get(key) is None
            assert key not in store
            with pytest.raises(ValueError, match="not a job key"):
                store.put(key, {"cycles": 1})

    def test_other_layouts_read_as_misses(self, tmp_path):
        # an old harness cache entry and an old blob/index store under
        # the same root are never probed, so never quarantined
        root = tmp_path / "store"
        (root / "index").mkdir(parents=True)
        old = root / f"{self.KEY}.json"
        old.write_text('{"cycles": 1}')
        (root / "index" / f"{self.KEY}.json").write_text("{}")
        store = ResultStore(root)
        assert store.get(self.KEY) is None and self.KEY not in store
        assert len(store) == 0 and store.stats.quarantined == 0
        assert old.read_text() == '{"cycles": 1}'

    def test_root_must_be_a_directory(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(ValueError, match="not a directory"):
            ResultStore(tmp_path / "file")


def drive(coro):
    """Run one async scheduler scenario to completion."""
    return asyncio.run(asyncio.wait_for(coro, timeout=300))


class TestScheduler:
    def test_coalescing_and_store_hits(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path / "store")
            sched = JobScheduler(store, workers=2)
            await sched.start()
            try:
                job = Job("sma", "daxpy", 64)
                k1, f1, s1 = sched.submit(job)
                k2, f2, s2 = sched.submit(job)
                assert (s1, s2) == ("queued", "coalesced")
                assert k1 == k2 and f1 is f2
                result = await f1
                # landed results are store hits, not new entries
                _k3, f3, s3 = sched.submit(job)
                assert s3 == "cached" and (await f3) == result
                return result, sched.stats
            finally:
                await sched.stop()

        result, stats = drive(scenario())
        assert canonical(result) == canonical(
            run_job(Job("sma", "daxpy", 64))
        )
        assert stats.executed == 1
        assert stats.coalesced == 1
        assert stats.hits == 1

    def test_backpressure_rejects_when_full(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path / "store")
            sched = JobScheduler(store, workers=1, max_backlog=2)
            await sched.start()
            try:
                futures = []
                for n in (32, 48, 64):
                    try:
                        _k, future, _s = sched.submit(
                            Job("sma", "daxpy", n)
                        )
                        futures.append(future)
                    except QueueFullError:
                        futures.append(None)
                assert futures[2] is None, "third distinct job rejected"
                assert sched.stats.rejected == 1
                # a duplicate of a queued job still coalesces at capacity
                _k, dup, status = sched.submit(Job("sma", "daxpy", 32))
                assert status == "coalesced"
                await asyncio.gather(futures[0], futures[1])
            finally:
                await sched.stop()

        drive(scenario())

    def test_draining_gate(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path / "store")
            sched = JobScheduler(store, workers=1)
            await sched.start()
            try:
                _k, future, _s = sched.submit(Job("sma", "daxpy", 32))
                sched.begin_drain()
                with pytest.raises(SchedulerDraining):
                    sched.submit(Job("sma", "daxpy", 64))
                await sched.drained()
                assert future.done()
            finally:
                await sched.stop()

        drive(scenario())

    def test_worker_drain_retires_between_jobs(self, tmp_path):
        """A worker drained while it runs a job lands that job, then
        leaves the fleet; the result is the one ``run_job`` returns."""

        async def scenario():
            store = ResultStore(tmp_path / "store")
            # the armed sleep holds the job in its pool process long
            # enough to drain while it runs
            sched = JobScheduler(
                store, workers=2,
                policy=HarnessPolicy(inject=FaultSpec("sleep", 0.2)),
            )
            await sched.start()
            try:
                job = Job("sma", "daxpy", 64)
                _k, future, _s = sched.submit(job)
                while sched.progress()["running"] == 0:
                    await asyncio.sleep(0.001)
                assert not future.done()
                assert sched.drain_workers(1) == 1
                result = await future
                assert sched.progress()["workers"] == 1
                return result
            finally:
                await sched.stop()

        result = drive(scenario())
        assert canonical(result) == canonical(
            run_job(Job("sma", "daxpy", 64))
        )

    def test_last_worker_never_drains(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path / "store")
            sched = JobScheduler(store, workers=1)
            await sched.start()
            try:
                assert sched.drain_workers(3) == 0
            finally:
                await sched.stop()
            # an idle worker leaves only after its next job, so a
            # second drain before then must not retire the survivor
            sched = JobScheduler(store, workers=2)
            await sched.start()
            try:
                assert sched.drain_workers(1) == 1
                assert sched.drain_workers(1) == 0
                _k, future, _s = sched.submit(Job("sma", "daxpy", 16))
                await future
                _k, future, _s = sched.submit(Job("sma", "daxpy", 24))
                await future
                assert sched.progress()["workers"] == 1
            finally:
                await sched.stop()

        drive(scenario())

    @pytest.mark.parametrize("job", [
        Job("sma", "daxpy", 32),
        Job("cluster", "daxpy", 32, nodes=2),
        Job("scalar", "daxpy", 32),
    ], ids=lambda j: j.machine)
    def test_armed_sleep_charges_a_timeout(self, tmp_path, job):
        """The pool's fault hook fires on every machine kind: an armed
        ``sleep`` longer than the timeout charges the job a timeout."""

        async def scenario():
            sched = JobScheduler(
                ResultStore(tmp_path / "store"), workers=1,
                policy=HarnessPolicy(timeout=0.5, retries=0,
                                     inject=FaultSpec("sleep", 10.0)),
            )
            await sched.start()
            try:
                _key, future, _status = sched.submit(job)
                with pytest.raises(SweepError, match="timed out"):
                    await future
                return sched.stats
            finally:
                await sched.stop()

        stats = drive(scenario())
        assert stats.failures == {"Timeout": 1}
        assert stats.executed == 0

    def test_terminal_failure_reported_and_resubmittable(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path / "store")
            sched = JobScheduler(
                store, workers=1,
                policy=HarnessPolicy(retries=1, backoff=0.01),
            )
            await sched.start()
            try:
                # an unknown kernel fails fast and deterministically
                bad = Job("sma", "no_such_kernel", 64)
                key, future, _s = sched.submit(bad)
                with pytest.raises(Exception):
                    await future
                status = sched.lookup(key)
                assert status["status"] == "failed"
                assert sched.stats.retried == 1
                # resubmission clears the failure record and retries
                _k, fresh, s = sched.submit(bad)
                assert s == "queued"
                with pytest.raises(Exception):
                    await fresh
            finally:
                await sched.stop()

        drive(scenario())


def _client_run(url, jobs, landed=None, timeout=240):
    with ServiceClient(url) as client:
        return client.run(
            jobs,
            on_result=(lambda i, r: landed.append(i))
            if landed is not None else None,
            timeout=timeout,
        )


class TestServiceEndToEnd:
    """The acceptance scenario: concurrent clients against a live
    server, verified against the serial harness."""

    GRID = [
        Job("sma", "daxpy", 48, sma_config=SMAConfig(
            memory=MemoryConfig(latency=lat))) for lat in (2, 4, 8)
    ] + [
        Job("scalar", "daxpy", 48),
        Job("cluster", "daxpy", 32, nodes=2),
    ]

    def test_concurrent_clients_coalesce_and_match_serial(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path / "store")
            server = SweepServer(store, workers=2)
            host, port = await server.start()
            url = f"http://{host}:{port}"
            loop = asyncio.get_running_loop()
            try:
                # two clients, same duplicate-heavy grid, racing
                a = loop.run_in_executor(
                    None, _client_run, url, self.GRID
                )
                b = loop.run_in_executor(
                    None, _client_run, url, self.GRID
                )
                results_a, results_b = await asyncio.gather(a, b)
                progress = server.scheduler.progress()
                return results_a, results_b, progress
            finally:
                await server.stop()

        results_a, results_b, progress = drive(scenario())
        serial = run_jobs(self.GRID)
        for i in range(len(self.GRID)):
            assert canonical(results_a[i]) == canonical(serial[i])
            assert canonical(results_b[i]) == canonical(serial[i])
        sweep = progress["sweep"]
        # every duplicate coalesced or hit the store; nothing ran twice
        assert sweep["executed"] == len(self.GRID)
        assert sweep["coalesced"] + sweep["hits"] == len(self.GRID)
        assert progress["store"]["results"] == len(self.GRID)

    def test_http_surface(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path / "store")
            server = SweepServer(store, workers=1)
            host, port = await server.start()
            url = f"http://{host}:{port}"
            loop = asyncio.get_running_loop()

            def poke():
                with ServiceClient(url) as client:
                    assert client.healthz()
                    job = Job("sma", "daxpy", 48)
                    [status] = client.submit([job])
                    assert status["status"] == "queued"
                    key = status["key"]
                    done = client.job_status(key, wait=60)
                    assert done["status"] == "done"
                    stats = client.stats()
                    assert stats["sweep"]["executed"] == 1
                    # unknown routes and keys 404 without wedging the
                    # kept-alive connection
                    assert client._request("GET", "/v1/nope")[0] == 404
                    assert client._request("GET", "/v1/progress")[0] == 404
                    assert client.job_status("f" * 64) is None
                    # malformed spec -> 400 with a ProtocolError message
                    code, reply = client._request(
                        "POST", "/v1/jobs", {"jobs": [{"machine": "abacus"}]}
                    )
                    assert code == 400 and "error" in reply
                    # a drain names its workers; nothing gates intake
                    code, reply = client._request("POST", "/v1/drain", {})
                    assert code == 400 and "workers" in reply["error"]
                    [status] = client.submit([Job("sma", "daxpy", 32)])
                    assert status["status"] == "queued"
                    assert client.healthz()
                return done["result"]

            try:
                result = await loop.run_in_executor(None, poke)
            finally:
                await server.stop()
            return result

        result = drive(scenario())
        assert canonical(result) == canonical(run_job(Job("sma", "daxpy", 48)))

    @staticmethod
    def _post_beside_a_good_spec(tmp_path, specs):
        """POST each of ``specs`` beside one good spec to a fresh server;
        returns the replies, the good job's status and the server's
        stats."""
        good = job_to_spec(Job("sma", "daxpy", 32))

        async def scenario():
            server = SweepServer(ResultStore(tmp_path / "store"),
                                 workers=1)
            host, port = await server.start()
            url = f"http://{host}:{port}"

            def post():
                with ServiceClient(url) as client:
                    replies = [
                        client._request("POST", "/v1/jobs",
                                        {"jobs": [good, spec]})
                        for spec in specs
                    ]
                    known = client.job_status(
                        job_key(Job("sma", "daxpy", 32)))
                    return replies, known, client.stats()

            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, post)
            finally:
                await server.stop()

        return drive(scenario())

    def test_malformed_specs_answer_400_before_queueing(self, tmp_path):
        good = job_to_spec(Job("sma", "daxpy", 32))
        malformed = [dict(good, **change) for change in (
            {"kernel": "nope"}, {"n": -5}, {"n": 0}, {"n": 2.5},
            {"n": "64"}, {"seed": "x"}, {"check": "yes"},
        )]
        # a float in a config's int field
        floats = [dict(good, sma_config=config) for config in (
            {"memory": {"latency": 2.5}}, {"num_load_queues": 8.0},
        )]
        # a bool in a config's float field
        flag = dict(good, sma_config={"speculation": {"accuracy": True}})
        replies, known, stats = self._post_beside_a_good_spec(
            tmp_path, malformed + floats + [flag])
        for spec, (code, reply) in zip(malformed, replies):
            assert code == 400 and "invalid Job spec" in reply["error"], \
                spec
        for spec, (code, reply) in zip(floats, replies[len(malformed):]):
            assert code == 400 and "must be an int" in reply["error"], spec
        code, reply = replies[-1]
        assert code == 400 and "must be a float" in reply["error"]
        # a refused payload queues none of its jobs, not even the good one
        assert known is None
        assert stats["sweep"]["executed"] == 0
        assert stats["store"]["results"] == 0

    def test_faults_field_answers_400(self, tmp_path):
        """``SMAConfig`` has no ``faults`` field: a spec that carries
        one, null or an object, is refused as an unknown field."""
        good = job_to_spec(Job("sma", "daxpy", 32))
        faulted = [dict(good, sma_config={"faults": faults})
                   for faults in (None, {"reject_prob": 0.1})]
        replies, known, stats = self._post_beside_a_good_spec(
            tmp_path, faulted)
        for spec, (code, reply) in zip(faulted, replies):
            assert code == 400, spec
            assert "unknown SMAConfig field(s): ['faults']" in \
                reply["error"], spec
        assert known is None
        assert stats["sweep"]["executed"] == 0

    def test_over_cap_specs_answer_400_before_queueing(self, tmp_path):
        """The resource probe's oversized specs never reach a worker."""
        good = job_to_spec(Job("sma", "daxpy", 32))
        over = [dict(good, **change) for change in (
            {"n": 10**9}, {"machine": "cluster", "nodes": 10**6},
            {"machine": "sma-occupancy", "buckets": 10**9},
            {"sma_config": {"memory": {"latency": 10**9}}},
            {"sma_config": {"memory": {"size": 10**10}}},
            {"sma_config": {"queues": {"load_queue_depth": 10**9}}},
            {"sma_config": {"num_load_queues": 10**12}},
        )]
        replies, known, stats = self._post_beside_a_good_spec(tmp_path, over)
        for spec, (code, reply) in zip(over, replies):
            assert code == 400 and "exceeds its cap" in reply["error"], spec
        assert known is None
        assert stats["sweep"]["executed"] == 0
        assert stats["store"]["results"] == 0

    @pytest.mark.parametrize("eid", ["R-F1", "R-T4"])
    def test_submit_prints_the_experiment_table(self, tmp_path, capsys,
                                                eid):
        """``repro experiment --url`` submits every job of an
        experiment to the server (a ``HarnessPolicy.service_url``
        scope) and prints the table ``repro experiment`` prints."""
        import re

        from repro.cli import main

        assert main(["experiment", eid, "--n", "16"]) == 0
        want, err = capsys.readouterr()
        executed = int(re.search(r"(\d+) executed", err).group(1))

        async def scenario():
            server = SweepServer(ResultStore(tmp_path / "store"),
                                 workers=2)
            host, port = await server.start()
            argv = ["experiment", eid, "--n", "16",
                    "--url", f"http://{host}:{port}"]
            try:
                code = await asyncio.get_running_loop().run_in_executor(
                    None, main, argv
                )
                return code, server.scheduler.progress()
            finally:
                await server.stop()

        code, progress = drive(scenario())
        assert code == 0
        assert capsys.readouterr().out == want
        assert progress["sweep"]["executed"] == executed > 0

    def test_pool_worker_kill_recovers_without_reexecution(self, tmp_path):
        """SIGKILL a pool process mid-sweep: the scheduler respawns the
        pool, charges at most the victims, and already-flushed results
        are served from the store — never re-executed."""

        async def scenario():
            store = ResultStore(tmp_path / "store")
            server = SweepServer(
                store, workers=2,
                policy=HarnessPolicy(retries=3, backoff=0.05),
            )
            host, port = await server.start()
            url = f"http://{host}:{port}"
            loop = asyncio.get_running_loop()
            jobs = [
                Job("sma", "hydro", 96, sma_config=SMAConfig(
                    memory=MemoryConfig(latency=lat)))
                for lat in (2, 3, 4, 6, 8, 12)
            ]
            try:
                run = loop.run_in_executor(
                    None, _client_run, url, jobs
                )
                # wait for real execution, then kill a pool process
                import os

                while not server.scheduler.worker_pids():
                    await asyncio.sleep(0.01)
                while server.scheduler.progress()["running"] == 0:
                    await asyncio.sleep(0.01)
                victim = server.scheduler.worker_pids()[0]
                os.kill(victim, signal.SIGKILL)
                results = await run
                return results, server.scheduler.progress()
            finally:
                await server.stop()

        results, progress = drive(scenario())
        jobs = [
            Job("sma", "hydro", 96, sma_config=SMAConfig(
                memory=MemoryConfig(latency=lat)))
            for lat in (2, 3, 4, 6, 8, 12)
        ]
        serial = run_jobs(jobs)
        for got, want in zip(results, serial):
            assert canonical(got) == canonical(want)
        sweep = progress["sweep"]
        assert sweep["respawns"] >= 1
        # the kill cost retries, not correctness; flushed results were
        # never re-executed (executed counts one landing per job)
        assert sweep["executed"] == len(jobs)


def _refuse_to_connect(monkeypatch):
    """Make any client connection attempt fail the test."""
    def connect(*args, **kwargs):
        raise AssertionError("the sweep opened a connection")

    monkeypatch.setattr(socket, "create_connection", connect)


def test_service_backend_refuses_an_armed_fault(tmp_path, monkeypatch):
    # the fault hooks run in this process and its pool, never on the
    # server: a service sweep with a fault armed would run unfaulted
    _refuse_to_connect(monkeypatch)
    job = Job("sma", "daxpy", 16)
    spec = FaultSpec("sleep", 0.0)
    with harness_policy(service_url="http://127.0.0.1:9", inject=spec):
        with pytest.raises(ValueError, match="cannot inject"):
            run_jobs([job])
        with pytest.raises(ValueError, match="cannot inject"):
            run_jobs([job], workers=2, cache_dir=tmp_path / "cache")
    assert not (tmp_path / "cache").exists()


def test_service_route_refuses_a_per_job_timeout(tmp_path, monkeypatch):
    # the server times each job with its own `repro serve --timeout`;
    # on the client a policy timeout could only bound the whole
    # submission, so it is refused before any connection
    _refuse_to_connect(monkeypatch)
    with harness_policy(service_url="http://127.0.0.1:9", timeout=0.2):
        with pytest.raises(ValueError, match="repro serve --timeout"):
            run_jobs([Job("sma", "daxpy", 16)],
                     cache_dir=tmp_path / "cache")
    assert not (tmp_path / "cache").exists()


def test_service_route_refuses_policy_retries(tmp_path, monkeypatch):
    # the server retries each job with its own `repro serve --retries`;
    # this sweep's retry budget would make one attempt and say nothing
    _refuse_to_connect(monkeypatch)
    with harness_policy(service_url="http://127.0.0.1:9", retries=3):
        with pytest.raises(ValueError, match="repro serve --retries"):
            run_jobs([Job("sma", "daxpy", 16)],
                     cache_dir=tmp_path / "cache")
    assert not (tmp_path / "cache").exists()


def test_service_route_refuses_local_workers(tmp_path, monkeypatch):
    # the server runs the jobs on its own pool; a local pool of four
    # workers would never start
    _refuse_to_connect(monkeypatch)
    with harness_policy(service_url="http://127.0.0.1:9"):
        with pytest.raises(ValueError, match="workers=4"):
            run_jobs([Job("sma", "daxpy", 16)], workers=4,
                     cache_dir=tmp_path / "cache")
    assert not (tmp_path / "cache").exists()


def test_service_route_refuses_an_armed_capture(monkeypatch):
    # the server's runs fill no collector in this process
    from repro.metrics import capture_reports

    _refuse_to_connect(monkeypatch)
    with capture_reports() as collector, harness_policy(
        service_url="http://127.0.0.1:9"
    ):
        with pytest.raises(ValueError, match="RunReport capture"):
            run_jobs([Job("sma", "daxpy", 16)])
    assert collector.reports == []


def test_service_route_refuses_the_batch_backend(monkeypatch):
    # the service is a policy route, not a backend, and the batch
    # engine runs in this process, so it cannot share that route
    _refuse_to_connect(monkeypatch)
    job = Job("sma", "daxpy", 16)
    with pytest.raises(ValueError, match="unknown backend 'service'"):
        run_jobs([job], backend="service")
    with harness_policy(service_url="http://127.0.0.1:9"):
        with pytest.raises(ValueError, match="backend='batch'"):
            run_jobs([job], backend="batch")


class _CountingServer(SweepServer):
    """Keeps the writer of every client connection it accepts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connections = []

    async def _handle(self, reader, writer):
        self.connections.append(writer)
        await super()._handle(reader, writer)


class TestClientConnection:
    """``ServiceClient`` keeps one connection open across requests and
    replaces it once when the server has dropped it."""

    def test_one_connection_carries_every_request(self, tmp_path):
        async def scenario():
            server = _CountingServer(ResultStore(tmp_path / "store"),
                                     workers=2)
            host, port = await server.start()
            client = ServiceClient(f"http://{host}:{port}")

            def requests():
                [status] = client.submit([Job("sma", "daxpy", 32)])
                done = client.job_status(status["key"], wait=60)
                return done, client.stats(), client.drain_workers(1)

            try:
                out = await asyncio.get_running_loop().run_in_executor(
                    None, requests
                )
                return out, len(server.connections)
            finally:
                client.close()
                await server.stop()

        (done, stats, drained), connections = drive(scenario())
        assert done["status"] == "done"
        assert canonical(done["result"]) == canonical(
            run_job(Job("sma", "daxpy", 32))
        )
        assert stats["sweep"]["executed"] == 1
        assert drained == 1
        assert connections == 1

    def test_request_after_the_server_dropped_the_connection(
        self, tmp_path
    ):
        async def scenario():
            server = _CountingServer(ResultStore(tmp_path / "store"),
                                     workers=1)
            host, port = await server.start()
            client = ServiceClient(f"http://{host}:{port}")
            loop = asyncio.get_running_loop()
            try:
                before = await loop.run_in_executor(None, client.stats)
                for writer in server.connections:
                    writer.close()
                await asyncio.sleep(0.1)
                after = await loop.run_in_executor(None, client.stats)
                return before, after, len(server.connections)
            finally:
                client.close()
                await server.stop()

        before, after, connections = drive(scenario())
        assert after["sweep"] == before["sweep"]
        assert connections == 2


class TestSharedStore:
    """``run_jobs(cache_dir=D)`` and a server on ``ResultStore(D)``
    share one directory both ways, and neither serves a tampered or
    torn entry."""

    SWEPT = [Job("sma", "daxpy", 32), Job("scalar", "daxpy", 32)]
    SERVED = [Job("sma", "hydro", 32), Job("scalar", "hydro", 32)]

    def test_sweep_cache_and_service_store_are_one_directory(
        self, tmp_path
    ):
        shared = tmp_path / "shared"
        swept = run_jobs(self.SWEPT, cache_dir=shared)

        def entry(job):
            return shared / (job_key(job) + SUFFIX)

        async def scenario():
            server = SweepServer(ResultStore(shared), workers=1)
            host, port = await server.start()
            url = f"http://{host}:{port}"

            def clients():
                with ServiceClient(url) as client:
                    return share(client)

            def share(client):
                # what run_jobs flushed is answered from the store
                statuses = client.submit(self.SWEPT)
                assert [s["status"] for s in statuses] == ["cached"] * 2
                assert [client.job_status(s["key"])["result"]
                        for s in statuses] == swept
                assert client.stats()["sweep"]["executed"] == 0
                served = client.run(self.SERVED, timeout=240)
                # a tampered sweep entry and a torn server entry are
                # executed again, never served: the job route's read
                # quarantines one, the submission's read the other
                _tamper(entry(self.SWEPT[0]))
                _tear(entry(self.SERVED[0]))
                assert client.job_status(statuses[0]["key"]) is None
                again = [self.SWEPT[0], self.SERVED[0]]
                statuses = client.submit(again)
                assert [s["status"] for s in statuses] == ["queued"] * 2
                return served, client.run(again, timeout=240), \
                    client.stats()

            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, clients
                )
            finally:
                await server.stop()

        served, rerun, stats = drive(scenario())
        assert served == [run_job(job) for job in self.SERVED]
        assert rerun == [swept[0], served[0]]
        assert stats["sweep"]["executed"] == len(self.SERVED) + 2
        assert stats["store"]["quarantined"] == 2
        # what the server stored is a hit for run_jobs
        both = self.SWEPT + self.SERVED
        with harness_policy() as sweep:
            assert run_jobs(both, cache_dir=shared) == swept + served
        assert sweep.hits == len(both) and sweep.executed == 0
        # and run_jobs serves no tampered or torn entry either
        _tamper(entry(self.SERVED[1]))
        _tear(entry(self.SWEPT[1]))
        with harness_policy() as sweep:
            assert run_jobs(both, cache_dir=shared) == swept + served
        assert sweep.quarantined == 2 and sweep.executed == 2


def _raw_exchange(host, port, payload: bytes) -> bytes:
    """Send ``payload`` on a fresh connection and read until the server
    closes it."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(payload)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


_HEALTHZ = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def _post_head(*headers: str) -> bytes:
    return ("POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            + "".join(h + "\r\n" for h in headers) + "\r\n").encode()


class TestRequestFraming:
    """Malformed or oversized request heads get an answer and a closed
    connection — never a dropped reply or a handler waiting for a body
    that will not come — and the server keeps serving."""

    CASES = {
        "length-not-a-number": (_post_head("Content-Length: abc"), 400),
        "length-negative": (_post_head("Content-Length: -5"), 400),
        "length-non-ascii-digit": (
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: \u00b2\r\n\r\n"
            .encode("latin-1"), 400,
        ),
        "request-line-malformed": (b"GARBAGE\r\n\r\n", 400),
        "body-over-cap": (
            _post_head(f"Content-Length: {MAX_BODY_BYTES + 1}"), 413,
        ),
        "body-absurd": (_post_head("Content-Length: 99999999999"), 413),
        "request-line-too-long": (
            b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", 414,
        ),
        "header-line-too-long": (
            _post_head("X-Pad: " + "a" * MAX_LINE_BYTES), 431,
        ),
        "header-line-past-stream-limit": (
            _post_head("X-Pad: " + "a" * 70_000), 431,
        ),
        "too-many-headers": (
            _post_head(*(f"X-H{i}: v" for i in range(MAX_HEADERS + 1))),
            431,
        ),
        "five-hundred-headers": (
            _post_head(*(f"X-H{i}: v" for i in range(500))), 431,
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bad_framing_answered_and_server_keeps_serving(
        self, tmp_path, case
    ):
        payload, status = self.CASES[case]

        async def scenario():
            server = SweepServer(ResultStore(tmp_path / "store"),
                                 workers=1)
            host, port = await server.start()
            loop = asyncio.get_running_loop()
            try:
                reply = await loop.run_in_executor(
                    None, _raw_exchange, host, port, payload
                )
                health = await loop.run_in_executor(
                    None, _raw_exchange, host, port,
                    _HEALTHZ.replace(b"\r\n\r\n",
                                     b"\r\nConnection: close\r\n\r\n"),
                )
            finally:
                await server.stop()
            return reply, health

        reply, health = drive(scenario())
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == str(status).encode()
        assert "error" in json.loads(body)
        assert health.split(b" ", 2)[1] == b"200"

    def test_oversized_body_sent_in_full_still_gets_413(self, tmp_path):
        """A client that sends the whole oversized body must still read
        the 413: closing with that body unread would reset the
        connection before the answer arrives."""
        body = b"x" * (MAX_BODY_BYTES + 1)
        payload = _post_head(f"Content-Length: {len(body)}") + body

        async def scenario():
            server = SweepServer(ResultStore(tmp_path / "store"),
                                 workers=1)
            host, port = await server.start()
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    None, _raw_exchange, host, port, payload
                )
            finally:
                await server.stop()

        reply = drive(scenario())
        assert reply.split(b" ", 2)[1] == b"413"

    def test_limits_still_frame_requests_on_a_kept_alive_connection(
        self, tmp_path
    ):
        """A request at the limits is served, and the connection stays
        usable for the next request."""

        async def scenario():
            server = SweepServer(ResultStore(tmp_path / "store"),
                                 workers=1)
            host, port = await server.start()
            loop = asyncio.get_running_loop()
            pad = "X-Pad: " + "a" * (MAX_LINE_BYTES - len("X-Pad: \r\n"))
            headers = [pad] + [f"X-H{i}: v" for i in range(MAX_HEADERS - 2)]
            request = (
                "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"
                + "".join(h + "\r\n" for h in headers) + "\r\n"
            ).encode()
            closing = _HEALTHZ.replace(
                b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"
            )
            try:
                return await loop.run_in_executor(
                    None, _raw_exchange, host, port, request + closing
                )
            finally:
                await server.stop()

        reply = drive(scenario())
        assert reply.count(b"HTTP/1.1 200 OK") == 2

    def test_non_numeric_wait_answered_400(self, tmp_path):
        """``?wait=abc`` is a bad request, not a dropped connection;
        the connection then serves the next request."""
        request = (f"GET /v1/jobs/{'f' * 64}?wait=abc HTTP/1.1\r\n"
                   "Host: x\r\n\r\n").encode()
        closing = _HEALTHZ.replace(
            b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"
        )

        async def scenario():
            server = SweepServer(ResultStore(tmp_path / "store"),
                                 workers=1)
            host, port = await server.start()
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    None, _raw_exchange, host, port, request + closing
                )
            finally:
                await server.stop()

        reply = drive(scenario())
        first, second = reply.split(b"HTTP/1.1 ")[1:]
        assert first.startswith(b"400")
        assert b"wait must be a number" in first
        assert second.startswith(b"200")


class TestJobRoutePaths:
    def test_job_keys_never_name_paths_outside_the_store(self, tmp_path):
        """URL text that is not a job key answers 404 and touches no
        file, not even one beside the store that a joined path would
        reach."""
        key = job_key(Job("sma", "daxpy", 32))
        victims = {
            tmp_path / "victim.json": "not a store entry",
            tmp_path / f"victim{SUFFIX}": "not a store entry either",
        }
        for path, text in victims.items():
            path.write_text(text)
        ResultStore(tmp_path / "store").put(key, {"cycles": 1})
        paths = ["../victim", "../../victim", key[:63], key.upper()]

        async def scenario():
            server = SweepServer(ResultStore(tmp_path / "store"),
                                 workers=1)
            host, port = await server.start()
            loop = asyncio.get_running_loop()
            try:
                replies = []
                for path in paths + [key]:
                    request = (f"GET /v1/jobs/{path} HTTP/1.1\r\n"
                               "Host: x\r\nConnection: close\r\n\r\n")
                    replies.append(await loop.run_in_executor(
                        None, _raw_exchange, host, port, request.encode()
                    ))
                return replies
            finally:
                await server.stop()

        *refused, stored = drive(scenario())
        for path, reply in zip(paths, refused):
            assert reply.split(b" ", 2)[1] == b"404", path
        assert stored.split(b" ", 2)[1] == b"200"
        for path, text in victims.items():
            assert path.read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["store", *(p.name for p in victims)]
        )
