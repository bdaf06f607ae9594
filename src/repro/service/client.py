"""Blocking stdlib client for a running ``repro serve`` instance.

This is what ``run_jobs`` under a ``HarnessPolicy.service_url``
(``repro experiment --url``) speaks through: plain :mod:`http.client`
over the JSON routes in :mod:`~repro.service.server`, on one
kept-alive connection per client.
The server computes job keys under its *own* code fingerprint and
returns them in the submit response, so the client never assumes both
ends run identical sources.

The one non-trivial behavior is :meth:`ServiceClient.run`: submit all
jobs in one POST, then long-poll each returned key, invoking
``on_result`` as results land — the callback signature matches the
harness's internal landing hook, which is how the service route of
:func:`repro.harness.parallel.run_jobs` streams remote results into
the local cache as they finish.  Backpressured (429)
submissions are retried with exponential backoff rather than failed.
"""

from __future__ import annotations

import http.client
import json
import logging
import time
from collections.abc import Callable, Sequence
from urllib.parse import urlsplit

from ..harness.jobs import Job
from .protocol import job_to_spec

_LOG = logging.getLogger("repro.service.client")

#: seconds each long-poll is allowed to hang before re-polling
_POLL_WAIT = 10.0
#: backpressure retry schedule base (seconds, doubled per attempt)
_RETRY_BASE = 0.25


class ServiceError(RuntimeError):
    """The service reported a terminal failure for a job or request."""


class ServiceClient:
    """Thin blocking wrapper over one server's ``/v1`` routes.

    Every request travels on one kept-alive
    :class:`http.client.HTTPConnection`, which :meth:`close` (or leaving
    a ``with`` block) releases; a reused connection the server has
    meanwhile closed is replaced, and the request resent, once.  A
    connection carries one request at a time, so each thread makes its
    own client, as perfbench's client threads,
    ``scripts/service_smoke.py``'s threads and
    ``run_jobs``' service route do.
    """

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        self._address = (url.hostname, url.port)
        self._prefix = url.path
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        """Close the kept-alive connection; the next request opens a
        new one."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- raw http ----------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        body = None if payload is None else json.dumps(payload).encode()
        while True:
            reused = self._conn is not None
            if not reused:
                self._conn = http.client.HTTPConnection(
                    *self._address, timeout=self.timeout
                )
            try:
                self._conn.request(
                    method, self._prefix + path, body,
                    {"Content-Type": "application/json"},
                )
                response = self._conn.getresponse()
                data = response.read()
            except BaseException as exc:
                self.close()
                if reused and isinstance(exc, ConnectionError):
                    continue  # the server dropped it while it was idle
                raise
            if response.will_close:
                self.close()
            break
        # 4xx/5xx still carry a JSON body with per-job statuses
        try:
            return response.status, json.loads(data)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"{method} {path} -> HTTP {response.status}"
            ) from exc

    # -- simple routes -----------------------------------------------------

    def healthz(self) -> bool:
        try:
            status, payload = self._request("GET", "/v1/healthz")
        except (OSError, http.client.HTTPException):
            return False
        return status == 200 and payload.get("ok") is True

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")[1]

    def job_status(self, key: str, wait: float = 0.0) -> dict | None:
        path = f"/v1/jobs/{key}"
        if wait > 0:
            path += f"?wait={wait:g}"
        status, payload = self._request("GET", path)
        return payload if status == 200 else None

    def drain_workers(self, count: int = 1) -> int:
        _status, payload = self._request(
            "POST", "/v1/drain", {"workers": count}
        )
        return payload.get("drained_workers", 0)

    def shutdown(self) -> None:
        self._request("POST", "/v1/shutdown", {})

    # -- submission --------------------------------------------------------

    def submit(self, jobs: Sequence[Job]) -> list[dict]:
        """One ``POST /v1/jobs``; returns the per-job status list (the
        caller inspects ``rejected``/``draining`` entries itself)."""
        _status, payload = self._request(
            "POST", "/v1/jobs",
            {"jobs": [job_to_spec(job) for job in jobs]},
        )
        statuses = payload.get("jobs")
        if not isinstance(statuses, list) or len(statuses) != len(jobs):
            raise ServiceError(
                f"malformed submit response: {payload!r}"
            )
        return statuses

    def run(
        self,
        jobs: Sequence[Job],
        on_result: Callable[[int, dict], None] | None = None,
        timeout: float | None = None,
        poll: float = _POLL_WAIT,
    ) -> list[dict]:
        """Submit ``jobs`` and block until every result is back.

        ``on_result(position, result)`` fires as each job lands (order
        follows completion, not submission).  Backpressured submissions
        retry with exponential backoff until accepted or ``timeout``
        runs out; a job the server reports as failed raises
        :class:`ServiceError`.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )

        def remaining() -> float | None:
            if deadline is None:
                return None
            left = deadline - time.monotonic()
            if left <= 0:
                raise ServiceError(
                    f"service run timed out after {timeout:g}s"
                )
            return left

        keys: dict[int, str] = {}
        todo = list(range(len(jobs)))
        attempt = 0
        while todo:
            statuses = self.submit([jobs[i] for i in todo])
            retry = []
            for i, status in zip(todo, statuses):
                if status["status"] in ("rejected", "draining"):
                    retry.append(i)
                else:
                    keys[i] = status["key"]
            if retry:
                attempt += 1
                delay = _RETRY_BASE * (2 ** min(attempt - 1, 6))
                left = remaining()
                if left is not None:
                    delay = min(delay, left)
                _LOG.info(
                    "%d job(s) backpressured; retrying in %.2fs",
                    len(retry), delay,
                )
                time.sleep(delay)
            todo = retry

        results: list[dict | None] = [None] * len(jobs)
        outstanding = set(keys)
        while outstanding:
            for i in sorted(outstanding):
                wait = poll
                left = remaining()
                if left is not None:
                    wait = min(wait, left)
                status = self.job_status(keys[i], wait=wait)
                if status is None:
                    raise ServiceError(
                        f"job key {keys[i][:12]} vanished from the "
                        "service"
                    )
                if status["status"] == "failed":
                    raise ServiceError(
                        f"job {i} failed remotely: "
                        f"{status.get('error', 'unknown error')}"
                    )
                if status["status"] == "done" and "result" in status:
                    results[i] = status["result"]
                    outstanding.discard(i)
                    if on_result is not None:
                        on_result(i, status["result"])
        return results  # type: ignore[return-value]
