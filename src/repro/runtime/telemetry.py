"""Telemetry: counters, timers and a JSONL event sink.

The engine, the SA annealer and the experiment flow all talk to one
:class:`Telemetry` object.  Events are plain dicts; a sink (usually
:class:`JsonlSink`) receives each event as it is emitted, and the object
also keeps an in-memory buffer plus monotonic counters so tests and the
CLI summary can interrogate a run without parsing the trace file.

A context-local *active* telemetry makes instrumentation non-invasive:
deep code (the annealer's temperature loop) calls ``get_telemetry()``,
which returns a no-op singleton unless a caller installed a real one via
``using_telemetry(...)`` in the same thread/task context (engines running
concurrently on different threads therefore never see each other's
telemetry).  Worker processes collect events locally and the
engine re-emits them in the parent, so a trace file is always written from
a single process.

The higher-level observability layer (:mod:`repro.obs`) builds on the
primitives kept here: the ambient *span* context variable (every emitted
event is stamped with the id of the enclosing span, see
:mod:`repro.obs.spans`), the ``epoch`` wall-clock anchor that lets the
engine rebase worker-relative timestamps onto the parent timeline, and the
per-telemetry :class:`~repro.obs.metrics.MetricsRegistry` reachable as
``telemetry.metrics``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterable, List, Optional

#: The ambient span id (see :mod:`repro.obs.spans`).  Lives here, not in
#: ``repro.obs``, so that :meth:`Telemetry.emit` can stamp events without
#: importing the observability layer.
_SPAN: ContextVar[Optional[str]] = ContextVar("repro_span", default=None)


class Telemetry:
    """Event buffer + counters, optionally forwarding to a sink."""

    enabled = True

    def __init__(self, sink: Optional[Callable[[dict], None]] = None) -> None:
        self._sink = sink
        self._lock = threading.Lock()
        self._start = time.perf_counter()
        #: Wall-clock time of creation; lets a parent process rebase the
        #: relative ``t`` of events collected under a *different* Telemetry
        #: (``ingest(offset=child.epoch - parent.epoch)``).
        self.epoch = time.time()
        self.events: List[dict] = []
        self.counters: Dict[str, float] = {}
        self._metrics = None

    # -- events ------------------------------------------------------------

    def emit(self, event_name: str, *, since: Optional[float] = None, **fields) -> dict:
        """Record one event; ``t`` is seconds since this object's creation.

        With *since* (a ``perf_counter`` reading) it also carries ``seconds``
        since then, read last: a span's ``span.end`` counts as its own time.

        Events emitted inside an active span (see :func:`repro.obs.spans.span`)
        are stamped with its id as ``span`` unless the caller supplies one.
        (The positional parameter is deliberately *not* called ``name`` —
        span events carry a ``name`` field of their own.)
        """
        event = {"event": event_name, "t": round(time.perf_counter() - self._start, 6)}
        span_id = _SPAN.get()
        if span_id is not None:
            event["span"] = span_id
        event.update(fields)
        if since is not None:
            event["seconds"] = round(time.perf_counter() - since, 6)
        with self._lock:
            self.events.append(event)
        if self._sink is not None:
            self._sink(event)
        return event

    def ingest(self, events: Iterable[dict], offset: float = 0.0, **extra) -> None:
        """Re-emit events collected elsewhere (e.g. in a worker process).

        ``offset`` (seconds) is added to each event's ``t``, rebasing
        timestamps recorded against another telemetry's start onto this
        one's timeline (pass ``child.epoch - self.epoch``).
        """
        for event in events:
            merged = dict(event)
            if offset and isinstance(merged.get("t"), (int, float)):
                merged["t"] = round(merged["t"] + offset, 6)
            merged.update(extra)
            with self._lock:
                self.events.append(merged)
            if self._sink is not None:
                self._sink(merged)

    def events_named(self, name: str) -> List[dict]:
        with self._lock:
            return [event for event in self.events if event.get("event") == name]

    # -- counters ----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def timer(self, name: str, **fields):
        """Time a block; emits ``<name>`` with ``seconds`` and accumulates
        ``<name>.seconds`` as a counter."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.count(f"{name}.seconds", elapsed)
            self.emit(name, seconds=round(elapsed, 6), **fields)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self.counters)

    # -- metrics registry --------------------------------------------------

    @property
    def metrics(self):
        """This telemetry's :class:`~repro.obs.metrics.MetricsRegistry`.

        Created lazily on first use; the no-op telemetry returns the null
        registry, so instrumented code pays only an attribute lookup when
        observability is disabled.
        """
        if self._metrics is None:
            from ..obs.metrics import NULL_REGISTRY, MetricsRegistry

            self._metrics = MetricsRegistry(self) if self.enabled else NULL_REGISTRY
        return self._metrics


class _NullTelemetry(Telemetry):
    """Discards everything; the default active telemetry."""

    enabled = False

    def emit(self, event_name: str, **fields) -> dict:  # pragma: no cover - trivial
        return {}

    def ingest(self, events, offset: float = 0.0, **extra) -> None:
        pass

    def count(self, name: str, amount: float = 1) -> None:
        pass


NULL = _NullTelemetry()


class JsonlSink:
    """Write events to a JSONL file, one object per line.

    One sink = one trace: opening truncates any previous file at the path,
    so a trace always holds a single run with one ``trace.meta`` stamp and
    one rooted span tree (appending across runs would trip the
    ``span.multiple-roots`` check and double every stats counter).

    Writes are buffered: lines accumulate in memory and hit the disk every
    ``flush_every`` events, on :meth:`flush`, and on :meth:`close` — one
    ``write`` syscall per batch instead of one per event.  ``flush_every``
    defaults to the ``REPRO_TRACE_FLUSH_EVERY`` environment variable (64
    when unset), and a wall-clock deadline (``flush_seconds``, default 1 s)
    bounds how stale the file can be regardless of batch fill: a slow event
    stream — one ``sa.step`` per temperature tier during a long anneal —
    still reaches a ``tail -f`` within a second of the *next* event instead
    of lagging up to 63 events behind.  The deadline is checked on event
    arrival (no timer thread); a sink that stops receiving events entirely
    flushes on :meth:`flush`/:meth:`close` as before.  The underlying
    file opens lazily on the first flush; ``close()`` is idempotent and a
    finalizer flushes any tail events should an exception path skip it.
    """

    def __init__(self, path, flush_every: Optional[int] = None,
                 flush_seconds: float = 1.0) -> None:
        self.path = path
        if flush_every is None:
            try:
                flush_every = int(os.environ.get("REPRO_TRACE_FLUSH_EVERY", 64))
            except ValueError:
                flush_every = 64
        self.flush_every = max(1, int(flush_every))
        self.flush_seconds = float(flush_seconds)
        self._lock = threading.Lock()
        self._buffer: List[str] = []
        self._handle = None
        self._closed = False
        self._last_flush = time.monotonic()
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)

    def __call__(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True, default=str)
        with self._lock:
            if self._closed:
                raise ValueError(f"JsonlSink({self.path}) is closed")
            self._buffer.append(line)
            if len(self._buffer) >= self.flush_every or (
                self.flush_seconds > 0
                and time.monotonic() - self._last_flush >= self.flush_seconds
            ):
                self._flush_locked()

    def _flush_locked(self) -> None:
        self._last_flush = time.monotonic()
        if not self._buffer:
            return
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
        self._handle.write("".join(line + "\n" for line in self._buffer))
        self._handle.flush()
        self._buffer.clear()

    def flush(self) -> None:
        """Write any buffered events to disk now."""
        with self._lock:
            if not self._closed:
                self._flush_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            try:
                self._flush_locked()
            finally:
                self._closed = True
                if self._handle is not None and not self._handle.closed:
                    self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.close()
        except Exception:
            pass


# Context-local, not a process global: the serving daemon runs engines on
# background threads concurrently, and a shared global would let their
# scoped set/restore pairs interleave — thread A restoring while thread B
# is active leaves B's telemetry installed forever.  A ContextVar isolates
# each thread (and each asyncio task) completely.
_active: ContextVar[Telemetry] = ContextVar("repro_telemetry", default=NULL)


def get_telemetry() -> Telemetry:
    """The currently active telemetry (a no-op unless one was installed)."""
    return _active.get()


@contextmanager
def using_telemetry(telemetry: Optional[Telemetry]):
    """Scope *telemetry* as the active object for a ``with`` block."""
    token = _active.set(telemetry if telemetry is not None else NULL)
    try:
        yield telemetry
    finally:
        _active.reset(token)
