"""The long-running co-design daemon: ``repro serve``.

A stdlib-only asyncio HTTP/1.1 server in front of the
:class:`~repro.runtime.JobEngine`:

- **Admission + dedup** — every submit becomes a :class:`JobSpec`; its
  content digest is the job id, so N clients posting the same design
  join one in-flight record instead of spawning N runs (and a completed
  digest is answered from memory before the disk cache is even asked).
- **Micro-batching** — distinct admitted specs are coalesced for
  ``batch_window`` seconds (up to ``batch_max``) and dispatched as one
  ``JobEngine.run`` call on a warm persistent worker pool, amortizing
  engine overhead across requests.
- **Backpressure** — more than ``queue_limit`` unfinished jobs rejects
  new work with HTTP 429 instead of accepting unbounded queues.
- **Progress streaming** — every telemetry event attributed to a job
  (``sa.step`` acceptance curve, ``job.done``, cache events from
  :mod:`repro.obs`) is buffered and re-served live as server-sent
  events on ``GET /v1/jobs/<digest>/events``.
- **Graceful lifecycle** — SIGTERM/SIGINT stop admissions, drain
  in-flight jobs up to ``drain_deadline`` seconds, flush the trace sink,
  release the worker pool and exit ``128+signum``.

- **Live stats** — every telemetry event also feeds a process-wide
  :class:`~repro.obs.live.LiveRegistry`; ``GET /v1/stats`` returns it as
  JSON (per-endpoint request-latency histograms and the folded job
  metrics) next to the ``/healthz`` document (counters, queue, cache).

Endpoints (see ``docs/serving.md`` for the full wire reference)::

    GET  /healthz                   liveness + counters + cache stats
    GET  /v1/stats                  live metric aggregate as JSON
    GET  /v1/schema                 wire/event schema versions, job kinds
    POST /v1/jobs                   submit (wire request; 200/202/400/429)
    GET  /v1/jobs/<digest>          status/result envelope
    GET  /v1/jobs/<digest>/events   SSE progress stream
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..obs.live import LIVE_SCHEMA, REQUEST_SECONDS_BUCKETS, LiveRegistry
from ..obs.schema import SCHEMA_VERSION
from ..runtime import JobEngine, JobJournal, JsonlSink, ResultCache, Telemetry
from ..runtime.journal import spec_from_record
from ..runtime.spec import job_types, resolve_job_type
from .state import DONE, FAILED, RUNNING, EventBus, JobRecord, JobRegistry
from .wire import (
    MAX_BODY_BYTES,
    WIRE_SCHEMA_VERSION,
    WireError,
    error_body,
    parse_request,
)

_STOP = object()


@dataclass
class ServeConfig:
    """Deployment knobs of one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 8642
    #: Engine worker processes (``workers=1`` runs jobs in the dispatcher
    #: thread — useful for tests, wrong for production).
    workers: int = 2
    cache: bool = True
    cache_dir: Optional[str] = None
    max_cache_bytes: Optional[int] = None
    #: Path of the persistent job journal (WAL).  When set, admissions and
    #: settlements survive ``kill -9``: on restart the registry is rebuilt
    #: from the journal and unfinished jobs re-enqueue exactly once.
    journal: Optional[str] = None
    queue_limit: int = 64
    #: Seconds the dispatcher waits to coalesce a batch after the first
    #: admitted job; 0 disables micro-batching.
    batch_window: float = 0.01
    batch_max: int = 16
    #: Per-job engine timeout (pool mode only), in seconds.
    timeout: Optional[float] = None
    retries: int = 1
    verify: str = "off"
    trace: Optional[str] = None
    #: Seconds SIGTERM/SIGINT waits for in-flight jobs before giving up.
    drain_deadline: float = 10.0
    #: Default cap on how long a ``wait=true`` submit blocks; ``None``
    #: waits until the job settles.
    wait_timeout: Optional[float] = None
    #: Print the ``serve.listening`` JSON line on stdout (subprocess
    #: harnesses parse it to discover an ephemeral port).
    announce: bool = True


class ServeApp:
    """The daemon: admission, dispatch, HTTP front-end, lifecycle."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.registry = JobRegistry()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "submitted": 0,
            "deduped": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "batches": 0,
            "executed": 0,
        }
        self.started_at = time.monotonic()
        self.live = LiveRegistry()
        self.draining = False
        self._signal: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._queue: Optional[asyncio.Queue] = None
        self._stopped: Optional[asyncio.Event] = None
        self.bus: Optional[EventBus] = None
        self.telemetry: Optional[Telemetry] = None
        self._sink: Optional[JsonlSink] = None
        self.engine: Optional[JobEngine] = None
        self.cache: Optional[ResultCache] = None
        self.journal: Optional[JobJournal] = None
        self.port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind, build the engine and start the dispatcher; returns
        ``(host, port)`` with the real ephemeral port resolved."""
        config = self.config
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stopped = asyncio.Event()
        self.bus = EventBus(self._loop, self.registry)
        self._sink = JsonlSink(config.trace) if config.trace else None

        def fan_out(event: dict) -> None:
            if self._sink is not None:
                self._sink(event)
            self.live.ingest(event)
            self.bus.publish(event)

        self.telemetry = Telemetry(sink=fan_out)
        self.telemetry.emit(
            "trace.meta", schema=SCHEMA_VERSION, tool="repro", command="serve"
        )
        self.cache = (
            ResultCache(config.cache_dir, max_bytes=config.max_cache_bytes)
            if config.cache
            else None
        )
        self.journal = (
            JobJournal(config.journal) if config.journal else None
        )
        self.engine = JobEngine(
            jobs=max(1, config.workers),
            cache=self.cache,
            telemetry=self.telemetry,
            timeout=config.timeout,
            retries=config.retries,
            verify=config.verify,
            warm=config.workers > 1,
            journal=self.journal,
        )
        self._recover()
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port
        )
        sockets = self._server.sockets or []
        self.port = sockets[0].getsockname()[1] if sockets else config.port
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self.telemetry.emit(
            "serve.start", host=config.host, port=self.port,
            workers=config.workers,
        )
        if config.announce:
            # Machine-readable announcement: subprocess harnesses parse
            # this line to discover an ephemeral port.
            print(
                json.dumps(
                    {"event": "serve.listening", "host": config.host,
                     "port": self.port}
                ),
                flush=True,
            )
        return config.host, self.port

    def _recover(self) -> None:
        """Rebuild the registry from the journal after a restart.

        Settled and failed digests become answerable records immediately
        (``GET /v1/jobs/<digest>`` survives ``kill -9``); digests that were
        in flight when the previous process died re-enqueue exactly once
        (:meth:`JobJournal.take_recovered` consumes the snapshot).
        """
        if self.journal is None:
            return
        settled = self.journal.settled_records()
        failed = self.journal.failed_records()
        for digest, entry in settled.items():
            spec = spec_from_record(entry)
            if spec is None:
                continue
            record = JobRecord(spec=spec, digest=digest, status=DONE)
            record.value = entry.get("value")
            record.cached = bool(entry.get("cached", False))
            record.attempts = int(entry.get("attempts", 1))
            record.seconds = float(entry.get("seconds", 0.0))
            record.done_event.set()
            self.registry.add(record)
            self.bus.labels[spec.label()] = digest
            self._settle(record, count=False)
        for digest, entry in failed.items():
            spec = spec_from_record(entry)
            if spec is None:
                continue
            record = JobRecord(spec=spec, digest=digest, status=FAILED)
            record.error = entry.get("error")
            record.error_class = entry.get("error_class")
            record.done_event.set()
            self.registry.add(record)
            self.bus.labels[spec.label()] = digest
            self._settle(record, count=False)
        recovered = self.engine.recovered_specs()
        for spec in recovered:
            digest = spec.digest()
            if self.registry.get(digest) is not None:
                continue
            record = JobRecord(spec=spec, digest=digest)
            self.registry.add(record)
            self.bus.labels[spec.label()] = digest
            self._queue.put_nowait(record)
        self.telemetry.emit(
            "serve.recover",
            settled=len(settled),
            inflight=len(recovered),
            failed=len(failed),
        )

    async def run_until_stopped(self, install_signals: bool = True) -> int:
        """Serve until :meth:`request_shutdown`; returns the exit code."""
        await self.start()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(
                        signum, self.request_shutdown, signum
                    )
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        await self._stopped.wait()
        return 128 + self._signal if self._signal else 0

    def request_shutdown(self, signum: Optional[int] = None) -> None:
        """Begin the graceful drain (idempotent; signal-handler safe)."""
        if self.draining:
            return
        self.draining = True
        self._signal = signum
        asyncio.ensure_future(self._drain(), loop=self._loop)

    async def _drain(self) -> None:
        """Stop admissions, drain in-flight work, release everything."""
        config = self.config
        started = time.monotonic()
        deadline = started + max(0.0, config.drain_deadline)
        # New submissions are already rejected (self.draining); wait for
        # the queue + running batches to settle.
        clean = True
        while self.registry.pending:
            if time.monotonic() >= deadline:
                clean = False
                break
            await asyncio.sleep(0.05)
        self.telemetry.emit(
            "serve.drain",
            pending=self.registry.pending,
            seconds=round(time.monotonic() - started, 6),
            clean=clean,
        )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._queue.put_nowait(_STOP)
        if self._dispatcher is not None:
            remaining = max(0.5, deadline - time.monotonic())
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._dispatcher, remaining)
            if not self._dispatcher.done():
                self._dispatcher.cancel()
        self.engine.close()
        if self.journal is not None:
            self.journal.close()
        self.telemetry.emit(
            "serve.stop",
            requests=self.counters["requests"],
            seconds=round(time.monotonic() - self.started_at, 6),
        )
        if self._sink is not None:
            self._sink.close()
        self._stopped.set()

    # -- dispatch ----------------------------------------------------------

    def _run_batch(self, specs):
        """Worker-thread side: one engine run for one admitted batch."""
        return self.engine.run(specs)

    async def _dispatch_loop(self) -> None:
        """Admitted records -> micro-batches -> ``JobEngine.run`` calls.

        One batch at a time: the engine parallelizes *inside* a batch
        across its worker pool, and serializing batches keeps all record
        state loop-thread-only while arrivals naturally coalesce into the
        next batch while the current one runs.
        """
        config = self.config
        loop = self._loop
        while True:
            record = await self._queue.get()
            if record is _STOP:
                return
            batch = [record]
            waited = 0.0
            if config.batch_max > 1 and config.batch_window > 0:
                deadline = loop.time() + config.batch_window
                while len(batch) < config.batch_max:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        extra = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                    if extra is _STOP:
                        self._queue.put_nowait(_STOP)
                        break
                    batch.append(extra)
                waited = config.batch_window - max(
                    0.0, deadline - loop.time()
                )
            # Anything already queued rides along without waiting.
            while len(batch) < config.batch_max:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _STOP:
                    self._queue.put_nowait(_STOP)
                    break
                batch.append(extra)
            now = time.monotonic()
            for entry in batch:
                entry.status = RUNNING
                entry.started = now
            self.counters["batches"] += 1
            self.counters["executed"] += len(batch)
            self.telemetry.emit(
                "serve.batch", size=len(batch), waited=round(waited, 6)
            )
            try:
                outcomes = await asyncio.to_thread(
                    self._run_batch, [entry.spec for entry in batch]
                )
                for entry, outcome in zip(batch, outcomes):
                    entry.finish(outcome)
                    self._settle(entry)
            except Exception as exc:  # noqa: BLE001 - nothing may kill the loop
                # A dead dispatcher strands every waiting client; fail the
                # batch instead and keep serving.
                for entry in batch:
                    if not entry.settled:
                        entry.finish(_synthetic_failure(entry, exc))
                        self._settle(entry)

    def _settle(self, record: JobRecord, count: bool = True) -> None:
        if count:
            self.counters["completed" if record.status == DONE else "failed"] += 1
        for dropped in self.registry.settle(record):
            self.bus.labels.pop(dropped.spec.label(), None)

    # -- HTTP --------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                started = time.perf_counter()
                keep_alive = headers.get("connection", "").lower() != "close"
                status = 500
                try:
                    status, finished = await self._route(
                        method, path, headers, body, writer
                    )
                except ConnectionError:  # pragma: no cover - client vanished
                    break
                elapsed = time.perf_counter() - started
                self.counters["requests"] += 1
                self.live.histogram(
                    "repro_serve_request_seconds", REQUEST_SECONDS_BUCKETS,
                    help="HTTP request latency by endpoint",
                    method=method, endpoint=_endpoint(path),
                    status=str(status),
                ).record(elapsed)
                self.telemetry.emit(
                    "serve.request", method=method, path=path, status=status,
                    seconds=round(elapsed, 6),
                )
                if not finished or not keep_alive:
                    break
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ConnectionError, ValueError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels idle keep-alive handlers; finishing cleanly
            # (after closing the socket below) keeps the loop teardown
            # quiet.  Nothing outside awaits these tasks.
            pass
        finally:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                # Closing the transport only closes *this process's* fd.
                # A warm pool worker forked while this connection was open
                # inherited a duplicate, which would keep the TCP stream
                # alive (no FIN) for as long as the pool lives — an SSE
                # client waiting for EOF would hang forever.  shutdown()
                # half-closes the connection itself, ending the stream no
                # matter how many forked children still hold the fd.
                sock = writer.get_extra_info("socket")
                if sock is not None:
                    with contextlib.suppress(OSError):
                        sock.shutdown(socket.SHUT_WR)
                writer.close()
                await writer.wait_closed()

    async def _route(self, method, path, headers, body, writer) -> Tuple[int, bool]:
        """Dispatch one request; returns (status, connection-reusable)."""
        if path == "/healthz" and method == "GET":
            return await _send_json(writer, 200, self.health()), True
        if path == "/v1/stats" and method == "GET":
            return await _send_json(writer, 200, self.stats()), True
        if path == "/v1/schema" and method == "GET":
            return await _send_json(writer, 200, self.schema()), True
        if path == "/v1/jobs" and method == "POST":
            return await self._handle_submit(body, writer), True
        if path.startswith("/v1/jobs/") and method == "GET":
            digest = path[len("/v1/jobs/"):]
            if digest.endswith("/events"):
                digest = digest[: -len("/events")]
                record = self.registry.get(digest)
                if record is None:
                    return await _send_json(
                        writer, 404,
                        error_body("unknown-job", f"no job {digest[:12]}..."),
                    ), True
                await self._stream_events(
                    record, writer,
                    last_event_id=_parse_last_event_id(headers),
                )
                return 200, False  # SSE closes the connection
            record = self.registry.get(digest)
            if record is None:
                return await _send_json(
                    writer, 404,
                    error_body("unknown-job", f"no job {digest[:12]}..."),
                ), True
            code = 200 if record.settled else 202
            return await _send_json(writer, code, record.envelope()), True
        return await _send_json(
            writer, 404, error_body("unknown-endpoint", f"{method} {path}")
        ), True

    async def _handle_submit(self, body: bytes, writer) -> int:
        if self.draining:
            return await _send_json(
                writer, 503, error_body("draining", "daemon is shutting down")
            )
        try:
            payload = json.loads(body or b"{}")
        except ValueError:
            return await _send_json(
                writer, 400, error_body("bad-json", "request body is not JSON")
            )
        try:
            request = parse_request(payload)
        except WireError as exc:
            return await _send_json(
                writer, 400,
                error_body("invalid-request", str(exc), exc.problems),
            )
        try:
            resolve_job_type(request.kind)
        except KeyError:
            return await _send_json(
                writer, 400,
                error_body(
                    "unknown-kind",
                    f"unknown job kind {request.kind!r}; "
                    f"registered: {job_types()}",
                ),
            )
        # Pin the effective seed before taking the digest, exactly like
        # the engine does before its cache lookup — dedup identity and
        # execution identity must be the same digest.
        spec = self.engine._effective_spec(request.spec())
        digest = spec.digest()
        record = self.registry.get(digest)
        deduped = record is not None
        if deduped:
            if not record.settled:
                record.submissions += 1
            self.counters["deduped"] += 1
        else:
            if self.registry.pending >= self.config.queue_limit:
                self.counters["rejected"] += 1
                self.telemetry.emit(
                    "serve.reject", reason="queue-full",
                    pending=self.registry.pending,
                )
                return await _send_json(
                    writer, 429,
                    error_body(
                        "overloaded",
                        f"{self.registry.pending} jobs pending "
                        f"(limit {self.config.queue_limit}); retry later",
                    ),
                    headers={"Retry-After": "1"},
                )
            record = JobRecord(spec=spec, digest=digest)
            self.registry.add(record)
            self.bus.labels[spec.label()] = digest
            if self.journal is not None:
                # Write-ahead at admission: a kill between here and the
                # batch dispatch still re-enqueues this digest on restart.
                self.journal.record_submitted(spec)
            self._queue.put_nowait(record)
        self.counters["submitted"] += 1
        self.telemetry.emit(
            "serve.submit", job=spec.label(), kind=spec.kind,
            dedup=deduped, wait=request.wait,
        )
        if not request.wait:
            code = 200 if record.settled else 202
            return await _send_json(writer, code, record.envelope(deduped))
        timeout = (
            request.timeout
            if request.timeout is not None
            else self.config.wait_timeout
        )
        try:
            await asyncio.wait_for(record.done_event.wait(), timeout)
        except asyncio.TimeoutError:
            # The job keeps running; the client polls or streams events.
            return await _send_json(writer, 202, record.envelope(deduped))
        return await _send_json(writer, 200, record.envelope(deduped))

    async def _stream_events(
        self,
        record: JobRecord,
        writer,
        last_event_id: Optional[int] = None,
    ) -> None:
        """Serve one job's telemetry as SSE: buffered replay, then live.

        Every event carries an ``id:`` line (per-record monotonic); a
        client reconnecting with ``Last-Event-ID: N`` replays only the
        ring-buffer events it missed (ids > N) before going live.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        queue = self.bus.subscribe(record)
        sent = last_event_id if last_event_id is not None else -1
        try:
            for event_id, event in list(record.events):
                if event_id <= sent:
                    continue
                await _send_sse(writer, event, event_id=event_id)
                sent = event_id
            while not record.settled:
                try:
                    event_id, event = await asyncio.wait_for(queue.get(), 1.0)
                except asyncio.TimeoutError:
                    continue
                if event_id <= sent:
                    continue
                await _send_sse(writer, event, event_id=event_id)
                sent = event_id
            # Flush whatever the finishing job still queued.
            while True:
                try:
                    event_id, event = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if event_id <= sent:
                    continue
                await _send_sse(writer, event, event_id=event_id)
                sent = event_id
            await _send_sse(
                writer, record.envelope(), event_name="serve.result"
            )
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            self.bus.unsubscribe(record, queue)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """The ``/v1/stats`` JSON snapshot: health plus the live metrics."""
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "live_schema": LIVE_SCHEMA,
            "health": self.health(),
            "ingested_events": self.live.ingested_events,
            "metrics": self.live.snapshot(),
        }

    def health(self) -> dict:
        snapshot = self.telemetry.snapshot() if self.telemetry else {}
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "status": "draining" if self.draining else "ok",
            "uptime": round(time.monotonic() - self.started_at, 3),
            "workers": self.config.workers,
            "counters": dict(self.counters),
            "queue": {
                "pending": self.registry.pending,
                "limit": self.config.queue_limit,
                "running": self.registry.running,
            },
            "sse_subscribers": self.registry.sse_subscribers,
            "cache": self.cache.stats if self.cache is not None else None,
            "engine": {
                key: snapshot[key]
                for key in sorted(snapshot)
                if key.startswith(("jobs.", "cache.", "engine."))
            },
        }

    def schema(self) -> dict:
        # The registry fills lazily; load the built-ins so the kind list
        # is complete even before the first job arrives.
        from ..runtime import jobs as _builtin_jobs  # noqa: F401

        return {
            "schema": WIRE_SCHEMA_VERSION,
            "wire_schema": WIRE_SCHEMA_VERSION,
            "events_schema": SCHEMA_VERSION,
            "kinds": job_types(),
        }


def _synthetic_failure(record: JobRecord, exc: BaseException):
    from ..runtime.engine import JobOutcome

    return JobOutcome(
        spec=record.spec,
        error=f"dispatcher failure: {type(exc).__name__}: {exc}",
        error_class="dispatcher",
    )


# -- HTTP plumbing ---------------------------------------------------------


async def _read_request(reader):
    """One parsed HTTP request, or ``None`` on a closed/invalid stream."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError:
        return None
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0) or 0)
    if length > MAX_BODY_BYTES:
        return method, path, headers, b""
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

_KNOWN_ENDPOINTS = frozenset(
    ("/healthz", "/v1/stats", "/v1/schema", "/v1/jobs")
)


def _endpoint(path: str) -> str:
    """Collapse a request path to a bounded-cardinality endpoint label."""
    if path.startswith("/v1/jobs/"):
        return (
            "/v1/jobs/:digest/events"
            if path.endswith("/events")
            else "/v1/jobs/:digest"
        )
    if path in _KNOWN_ENDPOINTS:
        return path
    return "other"


async def _send_json(writer, status: int, body: dict, headers=None) -> int:
    payload = json.dumps(body, sort_keys=True, default=str).encode("utf-8")
    extra = "".join(
        f"{key}: {value}\r\n" for key, value in (headers or {}).items()
    )
    writer.write(
        (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
        ).encode("latin-1")
        + b"\r\n"
        + payload
    )
    await writer.drain()
    return status


async def _send_sse(
    writer,
    event: dict,
    event_name: Optional[str] = None,
    event_id: Optional[int] = None,
) -> None:
    name = event_name or event.get("event", "message")
    data = json.dumps(event, sort_keys=True, default=str)
    prefix = f"id: {event_id}\n" if event_id is not None else ""
    writer.write(f"{prefix}event: {name}\ndata: {data}\n\n".encode("utf-8"))
    await writer.drain()


def _parse_last_event_id(headers: dict) -> Optional[int]:
    """The ``Last-Event-ID`` header as an int, or ``None`` when absent
    or malformed (a bad header means a full replay, not an error)."""
    raw = headers.get("last-event-id")
    if raw is None:
        return None
    try:
        return int(raw)
    except (TypeError, ValueError):
        return None


# -- entry points ----------------------------------------------------------


def serve_main(config: ServeConfig) -> int:
    """Blocking entry point used by ``repro serve``; returns exit code."""
    app = ServeApp(config)
    try:
        return asyncio.run(app.run_until_stopped())
    except KeyboardInterrupt:  # pragma: no cover - loop handles SIGINT
        return 130


class ServeHandle:
    """An in-process daemon on a background thread (tests, fuzz, bench).

    ``with ServeHandle(config) as handle:`` serves on an ephemeral port
    (``handle.port``) until the block exits; shutdown drains like the
    real daemon.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig(port=0, workers=1)
        self.app: Optional[ServeApp] = None
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._finished = threading.Event()

    def __enter__(self) -> "ServeHandle":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve daemon did not start within 30s")
        return self

    def _run(self) -> None:
        async def main():
            self.app = ServeApp(self.config)
            self._loop = asyncio.get_running_loop()
            await self.app.start()
            self.port = self.app.port
            self._ready.set()
            await self.app._stopped.wait()

        try:
            asyncio.run(main())
        finally:
            self._ready.set()  # unblock __enter__ on startup failure
            self._finished.set()

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self.app is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.app.request_shutdown)
        self._finished.wait(timeout=30)
        if self._thread is not None:
            self._thread.join(timeout=30)

    @property
    def address(self) -> Tuple[str, int]:
        if self.port is None:
            raise RuntimeError("daemon not started")
        return self.config.host, self.port
