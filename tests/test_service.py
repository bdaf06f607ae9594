"""The sweep service: protocol round-trips, the content-addressed
store, sliced execution, the coalescing scheduler, and the HTTP server
end to end.

The e2e class runs a real ``SweepServer`` on a loopback socket with
real process-pool workers and drives it from blocking clients in
threads — concurrent duplicate-heavy submissions must coalesce, results
must be byte-identical to serial :func:`repro.harness.jobs.run_job`,
byte-identical results must share one blob, and a SIGKILLed pool worker
must cost at most one retry (never a wrong or lost result).
"""

import asyncio
import json
import signal
import socket
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import (
    MemoryConfig,
    QueueConfig,
    ScalarConfig,
    SMAConfig,
    SpeculationConfig,
)
from repro.harness.jobs import Job, run_job
from repro.harness.parallel import HarnessPolicy, job_key, run_jobs
from repro.service import (
    ContentStore,
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
from repro.service.protocol import jobs_from_payload
from repro.service.server import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES
from repro.service.slices import run_job_slice, sliceable
from repro.service.store import result_digest


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

    def test_nested_config_validation_surfaces(self):
        spec = job_to_spec(Job("sma", "daxpy", 64,
                               sma_config=SMAConfig()))
        spec["sma_config"]["memory"] = {"latency": -1}
        with pytest.raises(ProtocolError):
            job_from_spec(spec)

    def test_payload_shape_enforced(self):
        with pytest.raises(ProtocolError, match='"jobs"'):
            jobs_from_payload({"jobs": []})
        with pytest.raises(ProtocolError, match='"jobs"'):
            jobs_from_payload([1, 2])
        jobs = jobs_from_payload(
            {"jobs": [job_to_spec(j) for j in self.JOBS[:2]]}
        )
        assert jobs == self.JOBS[:2]


class TestContentStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        result = run_job(Job("sma", "daxpy", 32))
        digest = store.put("k1", result)
        assert store.get("k1") == result
        assert store.get_blob(digest) == result
        assert "k1" in store and "k2" not in store

    def test_identical_results_share_one_blob(self, tmp_path):
        """Satellite 4: two sweeps whose jobs differ only in fields
        irrelevant to the result (``buckets`` does not affect an "sma"
        run) produce distinct job keys but one blob."""
        store = ContentStore(tmp_path / "store")
        sweep_a = Job("sma", "daxpy", 32)
        sweep_b = Job("sma", "daxpy", 32, buckets=9)
        key_a, key_b = job_key(sweep_a), job_key(sweep_b)
        assert key_a != key_b
        result_a, result_b = run_job(sweep_a), run_job(sweep_b)
        assert canonical(result_a) == canonical(result_b)
        digest_a = store.put(key_a, result_a)
        digest_b = store.put(key_b, result_b)
        assert digest_a == digest_b
        assert store.result_count() == 2
        assert store.blob_count() == 1
        assert store.stats.dedup_hits == 1

    def test_corrupt_blob_quarantined(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        digest = store.put("k1", {"cycles": 123})
        blob = store._blob_path(digest)
        blob.write_text('{"cycles": 9999}')  # flipped bits
        assert store.get("k1") is None
        assert not blob.exists()
        assert blob.with_name(blob.name + ".corrupt").exists()
        assert store.stats.quarantined >= 1
        # the dangling index went too: a fresh put works cleanly
        store.put("k1", {"cycles": 123})
        assert store.get("k1") == {"cycles": 123}

    def test_corrupt_index_quarantined(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        store.put("k1", {"cycles": 1})
        index = store._index_path("k1")
        index.write_text("{ not json")
        assert store.get("k1") is None
        assert index.with_name(index.name + ".corrupt").exists()

    def test_digest_binds_content(self):
        assert result_digest({"a": 1, "b": 2}) == result_digest(
            {"b": 2, "a": 1}
        )
        assert result_digest({"a": 1}) != result_digest({"a": 2})

    def test_promote_and_export_interop(self, tmp_path):
        jobs = [Job("sma", "daxpy", 32), Job("scalar", "daxpy", 32)]
        cache = tmp_path / "cache"
        run_jobs(jobs, cache_dir=cache)
        store = ContentStore(tmp_path / "store")
        assert store.promote(cache) == 2
        for job in jobs:
            assert store.get(job_key(job)) == run_job(job)
        out = tmp_path / "exported"
        assert store.export(out) == 2
        # an exported store serves a harness sweep entirely from cache
        from repro.harness.parallel import harness_policy
        with harness_policy() as sweep:
            results = run_jobs(jobs, cache_dir=out)
        assert sweep.hits == 2 and sweep.executed == 0
        assert results == [run_job(j) for j in jobs]


class TestSlices:
    CASES = [
        Job("sma", "daxpy", 64, check=True),
        Job("sma", "pic_gather", 48, lod_variant="addr"),
        Job("sma-nostream", "tridiag", 32, lod_variant="branch"),
        Job("cluster", "daxpy", 32, nodes=2, check=True),
    ]

    @pytest.mark.parametrize(
        "job", CASES, ids=lambda j: f"{j.machine}-{j.kernel}"
    )
    def test_sliced_run_bit_identical(self, job):
        direct = run_job(job)
        state, hops = None, 0
        while True:
            out = run_job_slice(job, state, 41)
            if out["done"]:
                sliced = out["result"]
                break
            state, hops = out["state"], hops + 1
            assert out["cycle"] > 0
        assert hops > 1, "slice budget must actually split the run"
        assert canonical(sliced) == canonical(direct)

    def test_snapshot_is_json_portable(self):
        """Checkpoints cross process (and machine) boundaries as JSON;
        a round-trip through the serializer must not change the run."""
        job = Job("sma", "daxpy", 64)
        direct = run_job(job)
        out = run_job_slice(job, None, 50)
        assert not out["done"]
        state = json.loads(json.dumps(out["state"]))
        while not out["done"]:
            out = run_job_slice(job, state, 50)
            state = out.get("state")
        assert canonical(out["result"]) == canonical(direct)

    def test_stale_checkpoint_restarts_fresh(self):
        job = Job("sma", "daxpy", 64)
        out = run_job_slice(job, None, 50)
        state = dict(out["state"])
        state["fingerprint"] = "not-this-machine"
        redo = run_job_slice(job, state, 10 ** 7)
        assert redo["done"]
        assert canonical(redo["result"]) == canonical(run_job(job))

    def test_sliceable_gates(self):
        assert sliceable(Job("sma", "daxpy", 64))
        assert sliceable(Job("cluster", "daxpy", 32, nodes=2))
        assert not sliceable(Job("scalar", "daxpy", 64))
        assert not sliceable(Job("vector", "daxpy", 64))
        assert not sliceable(Job("sma-occupancy", "daxpy", 64))
        spec = SMAConfig(speculation=SpeculationConfig(accuracy=0.5))
        assert not sliceable(Job("sma", "daxpy", 64, sma_config=spec))
        off = SMAConfig(speculation=SpeculationConfig(mode="never"))
        assert sliceable(Job("sma", "daxpy", 64, sma_config=off))


def drive(coro):
    """Run one async scheduler scenario to completion."""
    return asyncio.run(asyncio.wait_for(coro, timeout=300))


class TestScheduler:
    def test_coalescing_and_store_hits(self, tmp_path):
        async def scenario():
            store = ContentStore(tmp_path / "store")
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
            store = ContentStore(tmp_path / "store")
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
            store = ContentStore(tmp_path / "store")
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

    def test_worker_drain_migrates_checkpoint(self, tmp_path):
        """A drained worker requeues its sliced job with the checkpoint;
        the surviving worker finishes it bit-identically."""

        async def scenario():
            store = ContentStore(tmp_path / "store")
            sched = JobScheduler(store, workers=2, slice_cycles=40)
            await sched.start()
            try:
                job = Job("sma", "daxpy", 64)
                _k, future, _s = sched.submit(job)
                # let the first slice land, then retire a worker
                while True:
                    await asyncio.sleep(0.01)
                    entry = sched._inflight.get(job_key(job))
                    if entry is None or entry.state is not None:
                        break
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
            store = ContentStore(tmp_path / "store")
            sched = JobScheduler(store, workers=1)
            await sched.start()
            try:
                assert sched.drain_workers(3) == 0
            finally:
                await sched.stop()

        drive(scenario())

    def test_terminal_failure_reported_and_resubmittable(self, tmp_path):
        async def scenario():
            store = ContentStore(tmp_path / "store")
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
    client = ServiceClient(url)
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
            store = ContentStore(tmp_path / "store")
            server = SweepServer(store, workers=2, slice_cycles=10_000)
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
            store = ContentStore(tmp_path / "store")
            server = SweepServer(store, workers=1)
            host, port = await server.start()
            url = f"http://{host}:{port}"
            loop = asyncio.get_running_loop()

            def poke():
                import urllib.error
                import urllib.request

                client = ServiceClient(url)
                assert client.healthz()
                job = Job("sma", "daxpy", 48)
                [status] = client.submit([job])
                assert status["status"] == "queued"
                key = status["key"]
                done = client.job_status(key, wait=60)
                assert done["status"] == "done"
                blob = client.get_blob(done["digest"])
                assert blob == done["result"]
                stats = client.stats()
                assert stats["sweep"]["executed"] == 1
                # unknown routes and keys 404 without wedging keep-alive
                try:
                    urllib.request.urlopen(url + "/v1/nope")
                    raise AssertionError("expected 404")
                except urllib.error.HTTPError as exc:
                    assert exc.code == 404
                assert client.job_status("f" * 64) is None
                # malformed spec -> 400 with a ProtocolError message
                try:
                    urllib.request.urlopen(urllib.request.Request(
                        url + "/v1/jobs",
                        data=json.dumps(
                            {"jobs": [{"machine": "abacus"}]}
                        ).encode(),
                        method="POST",
                    ))
                    raise AssertionError("expected 400")
                except urllib.error.HTTPError as exc:
                    assert exc.code == 400
                return done["result"]

            try:
                result = await loop.run_in_executor(None, poke)
            finally:
                await server.stop()
            return result

        result = drive(scenario())
        assert canonical(result) == canonical(run_job(Job("sma", "daxpy", 48)))

    def test_pool_worker_kill_recovers_without_reexecution(self, tmp_path):
        """SIGKILL a pool process mid-sweep: the scheduler respawns the
        pool, charges at most the victims, and already-flushed results
        are served from the store — never re-executed."""

        async def scenario():
            store = ContentStore(tmp_path / "store")
            server = SweepServer(
                store, workers=2, slice_cycles=2_000,
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
            server = SweepServer(ContentStore(tmp_path / "store"),
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
            server = SweepServer(ContentStore(tmp_path / "store"),
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
            server = SweepServer(ContentStore(tmp_path / "store"),
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
