"""Minimal asyncio HTTP/1.1 front end over :class:`~repro.harness.
scheduler.JobScheduler` — stdlib only, keep-alive, chunked streaming.

Routes (all JSON bodies):

``GET /v1/healthz``
    ``{"ok": true}`` — liveness probe.
``POST /v1/jobs``
    Body ``{"jobs": [<spec>, ...]}`` (see :mod:`~repro.service.
    protocol`).  Every spec gets a per-job status — ``cached``,
    ``coalesced``, ``queued``, ``rejected`` (backlog full) or
    ``draining`` — plus its server-side ``key``.  The response code is
    429 when anything was rejected for backpressure, 503 when anything
    hit the drain gate, 200 otherwise; clients retry only the jobs
    whose status says so.
``GET /v1/jobs/<key>``
    Job status; ``?wait=<seconds>`` long-polls until the job resolves
    (capped) and inlines ``result``, digest-verified by the store, when
    done.  A key that is not a job key (64 lowercase hex characters) is
    unknown: it never reaches the filesystem.
``GET /v1/stats``
    One :meth:`~repro.harness.scheduler.JobScheduler.progress`
    snapshot.
``GET /v1/progress``
    Chunked ``application/x-ndjson`` stream of progress snapshots every
    ``?interval=`` seconds (default 0.5) until the client disconnects
    or the server shuts down — the service-side face of
    :class:`~repro.harness.parallel.SweepStats`.
``POST /v1/drain``
    Body ``{"workers": k}`` retires ``k`` fleet workers with checkpoint
    migration; a body without a positive integer ``"workers"`` is a 400.
``POST /v1/shutdown``
    Graceful exit: gate intake, wait for in-flight jobs, stop.

Request framing is bounded (:data:`MAX_LINE_BYTES`, :data:`MAX_HEADERS`,
:data:`MAX_BODY_BYTES`).  A request that breaks a bound, or whose
request line or ``Content-Length`` does not parse, is answered — 400
malformed, 413 body too large, 414 request line too long, 431 header
line too long or too many headers — without reading its body, and its
connection is closed: the bytes after it cannot be trusted to frame
another request.  A response after which the server closes the
connection of its own accord says ``Connection: close``.
"""

from __future__ import annotations

import asyncio
import json
import logging
from urllib.parse import parse_qs, urlsplit

from ..harness.parallel import HarnessPolicy
from ..harness.scheduler import (
    JobScheduler,
    QueueFullError,
    SchedulerDraining,
)
from ..harness.store import ResultStore
from .protocol import ProtocolError, jobs_from_payload

_LOG = logging.getLogger("repro.service.server")

#: cap on ?wait= long-polls, so a dead client cannot pin a handler
MAX_WAIT = 300.0

#: longest request line or header line, terminator included
MAX_LINE_BYTES = 8 * 1024
#: most header lines one request may carry
MAX_HEADERS = 100
#: largest request body.  The largest submission ``repro experiment
#: all`` makes is ~21 KB and a job spec is at most ~625 bytes, so a
#: 3200-point grid still fits in one POST.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: how long a rejected connection keeps discarding input before it
#: closes: closing with unread input resets the connection, which can
#: destroy the error response before the client reads it
LINGER_SECONDS = 1.0


class _BadRequest(Exception):
    """Maps to a 400 with the message as the error body."""


class _FramingError(Exception):
    """A request whose framing cannot be trusted: answered with
    ``status``, then the connection closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader, status: int,
                     what: str) -> bytes:
    """One CRLF-terminated line of the request head, at most
    :data:`MAX_LINE_BYTES` long (``status`` otherwise)."""
    try:
        line = await reader.readline()
    except ValueError:  # past the stream's own buffer limit
        line = None
    if line is None or len(line) > MAX_LINE_BYTES:
        raise _FramingError(
            status, f"{what} longer than {MAX_LINE_BYTES} bytes"
        )
    return line


def _content_length(value: str | None) -> int:
    """The declared body length: absent means 0; anything but plain
    ASCII digits is a 400, and more than :data:`MAX_BODY_BYTES` a 413."""
    if value is None:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise _FramingError(400, f"malformed Content-Length {value[:32]!r}")
    length = int(value)
    if length > MAX_BODY_BYTES:
        raise _FramingError(
            413, f"body of {length} bytes exceeds the "
                 f"{MAX_BODY_BYTES}-byte limit"
        )
    return length


class SweepServer:
    """One listening socket, one scheduler, stdlib all the way down."""

    def __init__(
        self,
        store: ResultStore,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_backlog: int = 256,
        policy: HarnessPolicy | None = None,
        slice_cycles: int | None = None,
    ) -> None:
        kwargs = dict(
            store=store,
            workers=workers,
            max_backlog=max_backlog,
            policy=policy or HarnessPolicy(),
        )
        if slice_cycles is not None:
            kwargs["slice_cycles"] = slice_cycles
        self.scheduler = JobScheduler(**kwargs)
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        #: open connections; stop() closes them, idle kept-alive ones too
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, start the fleet, and return ``(host, port)`` — port 0
        resolves to the kernel's pick, which is what tests print."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        _LOG.info("serving on http://%s:%d", self.host, self.port)
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Run until a ``POST /v1/shutdown`` completes its drain."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        self.scheduler.begin_drain()
        await self.scheduler.drained()
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            for writer in self._writers:
                writer.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    # -- http plumbing -----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _FramingError as exc:
                    await self._reject(reader, writer, exc)
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                try:
                    done = await self._dispatch(
                        writer, method, path, query, body
                    )
                except _BadRequest as exc:
                    self._respond(writer, 400, {"error": str(exc)})
                    done = False
                except ProtocolError as exc:
                    self._respond(writer, 400, {"error": str(exc)})
                    done = False
                await writer.drain()
                if done or headers.get("connection") == "close":
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await _read_line(reader, 414, "request line")
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _FramingError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        count = 0
        while True:
            raw = await _read_line(reader, 431, "header line")
            if raw in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > MAX_HEADERS:
                raise _FramingError(
                    431, f"more than {MAX_HEADERS} header lines"
                )
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = _content_length(headers.get("content-length"))
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {
            k: v[-1] for k, v in parse_qs(split.query).items()
        }
        return method, split.path.rstrip("/"), query, headers, body

    async def _reject(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        exc: _FramingError,
    ) -> None:
        """Answer a request whose framing cannot be trusted, half-close,
        and discard what the client still sends for at most
        :data:`LINGER_SECONDS`, so the caller's close does not reset the
        connection before the client has read the answer."""
        self._respond(writer, exc.status, {"error": str(exc)}, close=True)
        await writer.drain()
        if writer.can_write_eof():
            writer.write_eof()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + LINGER_SECONDS
        while (remaining := deadline - loop.time()) > 0:
            try:
                if not await asyncio.wait_for(reader.read(65536), remaining):
                    break
            except asyncio.TimeoutError:
                break

    @staticmethod
    def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode()
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Content Too Large", 414: "URI Too Long",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            503: "Service Unavailable",
        }.get(status, "OK")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                + ("Connection: close\r\n" if close else "")
                + "\r\n"
            ).encode()
            + body
        )

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict[str, str],
        body: bytes,
    ) -> bool:
        """Handle one request; returns True when the connection (or the
        whole server) should wind down afterwards."""
        if path == "/v1/healthz" and method == "GET":
            self._respond(writer, 200, {"ok": True})
            return False
        if path == "/v1/jobs" and method == "POST":
            self._handle_submit(writer, body)
            return False
        if path.startswith("/v1/jobs/") and method == "GET":
            await self._handle_job(writer, path[len("/v1/jobs/"):], query)
            return False
        if path == "/v1/stats" and method == "GET":
            self._respond(writer, 200, self.scheduler.progress())
            return False
        if path == "/v1/progress" and method == "GET":
            await self._handle_progress(writer, query)
            return True  # the stream consumed the connection
        if path == "/v1/drain" and method == "POST":
            self._handle_drain(writer, body)
            return False
        if path == "/v1/shutdown" and method == "POST":
            self._respond(writer, 202, {"draining": True}, close=True)
            self._shutdown.set()
            return True
        if path.startswith("/v1/"):
            self._respond(writer, 404, {"error": f"no route {path}"})
            return False
        self._respond(writer, 404, {"error": "unknown path"})
        return False

    def _handle_submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"request body is not JSON: {exc}")
        jobs = jobs_from_payload(payload)
        statuses = []
        for job in jobs:
            try:
                key, _future, status = self.scheduler.submit(job)
                statuses.append({"key": key, "status": status})
            except QueueFullError:
                statuses.append({"status": "rejected"})
            except SchedulerDraining:
                statuses.append({"status": "draining"})
        code = 200
        if any(s["status"] == "rejected" for s in statuses):
            code = 429
        elif any(s["status"] == "draining" for s in statuses):
            code = 503
        self._respond(writer, code, {"jobs": statuses})

    async def _handle_job(
        self,
        writer: asyncio.StreamWriter,
        key: str,
        query: dict[str, str],
    ) -> None:
        try:
            wait = min(float(query.get("wait", 0) or 0), MAX_WAIT)
        except ValueError:
            raise _BadRequest("wait must be a number")
        if wait > 0:
            future = self.scheduler.future_for(key)
            if future is not None:
                try:
                    await asyncio.wait_for(
                        asyncio.shield(future), wait
                    )
                except (asyncio.TimeoutError, Exception):
                    # a failed job still reports through lookup();
                    # shielded so one impatient poller cannot cancel
                    # the shared execution
                    pass
        status = self.scheduler.lookup(key)
        if status is not None and status["status"] == "done":
            result = self.scheduler.store.get(key)
            # a torn or tampered entry is quarantined by the read, which
            # leaves the key unknown until it is submitted again
            status = (None if result is None
                      else {**status, "result": result})
        if status is None:
            self._respond(writer, 404, {"error": "unknown job key"})
            return
        self._respond(writer, 200, status)

    async def _handle_progress(
        self, writer: asyncio.StreamWriter, query: dict[str, str]
    ) -> None:
        try:
            interval = max(0.05, float(query.get("interval", 0.5)))
        except ValueError:
            raise _BadRequest("interval must be a number")
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )

        def chunk(payload: dict) -> bytes:
            line = json.dumps(payload).encode() + b"\n"
            return f"{len(line):x}\r\n".encode() + line + b"\r\n"

        try:
            while True:
                writer.write(chunk(self.scheduler.progress()))
                await writer.drain()
                if self._shutdown.is_set():
                    break
                try:
                    await asyncio.wait_for(
                        self._shutdown.wait(), interval
                    )
                    writer.write(chunk(self.scheduler.progress()))
                    break
                except asyncio.TimeoutError:
                    continue
        except (ConnectionResetError, BrokenPipeError):
            return
        writer.write(b"0\r\n\r\n")

    def _handle_drain(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise _BadRequest("drain body must be an object")
        count = payload.get("workers")
        if not isinstance(count, int) or count < 1:
            raise _BadRequest('"workers" must be a positive integer')
        granted = self.scheduler.drain_workers(count)
        self._respond(
            writer, 200,
            {"drained_workers": granted,
             "workers": self.scheduler.progress()["workers"]},
        )
