"""Hierarchical spans: who-called-what-and-for-how-long over the event stream.

A *span* is a named, timed region of execution with an id and a parent id;
together they form the tree a trace analyser (``repro stats``) or Perfetto
reconstructs.  Spans ride on the ordinary telemetry event stream as two
events::

    {"event": "span.begin", "name": ..., "span": <id>, "parent": <id|None>, ...}
    {"event": "span.end",   "name": ..., "span": <id>, "parent": ..., "seconds": ...}

so a span-aware trace stays a plain JSONL file every existing consumer can
read.  The ambient parent is tracked in a :mod:`contextvars` variable owned
by :mod:`repro.runtime.telemetry`, which also stamps every *other* emitted
event with the innermost span id — attribution comes for free.

Cross-process propagation: span ids embed the producing process id
(``"<pid-hex>.<n>"``), so ids minted in pool workers never collide with the
parent's.  The engine opens a ``job`` span per pool job, hands its id to
the worker, and the worker roots its local span stack there via
:func:`attached_to` — after the parent ingests the worker's events, the
trace holds one connected tree.

The disabled path is near-free: :func:`span` checks ``telemetry.enabled``
once and returns a shared no-op context without minting ids, emitting
events or touching the context variable (proven by
``benchmarks/bench_obs.py``).

A span's clock runs from the :func:`span` call until its ``span.end``
event is built, so minting the id and emitting both events count as the
span's own time; a parent's self time holds only its own work.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager, nullcontext
from typing import Optional

from ..runtime.telemetry import _SPAN, Telemetry, get_telemetry

_counter = itertools.count(1)


def new_span_id() -> str:
    """A process-unique span id (``"<pid-hex>.<n>"``).

    The pid prefix keeps ids from forked pool workers disjoint from the
    parent's even though the counter state is inherited by the fork.
    """
    return f"{os.getpid():x}.{next(_counter)}"


def current_span_id() -> Optional[str]:
    """Id of the innermost active span, or ``None`` outside any span."""
    return _SPAN.get()


@contextmanager
def attached_to(span_id: Optional[str]):
    """Root the ambient span context at *span_id* for a ``with`` block.

    Used by pool workers to parent their local spans under the engine-side
    ``job`` span whose id traveled with the job submission.  Passing
    ``None`` isolates the block from any inherited span context (a forked
    worker inherits the parent's context variable state).
    """
    token = _SPAN.set(span_id)
    try:
        yield
    finally:
        _SPAN.reset(token)


class SpanHandle:
    """An explicitly managed open span (see :func:`open_span`).

    For code whose begin and end do not bracket a single ``with`` block —
    the engine opens a pool job's span at submission and closes it when the
    future resolves, possibly rounds later.  Such a handle does *not* touch
    the ambient context variable; it exists to be passed across an
    asynchronous boundary.  Used as a ``with`` block (what :func:`span`
    returns) it installs its id as the ambient parent and closes on exit.
    """

    __slots__ = ("name", "span_id", "parent_id", "_telemetry", "_start", "_fields",
                 "closed", "_token")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str],
                 telemetry: Telemetry, fields: dict, start: float) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self._telemetry = telemetry
        self._fields = fields
        self._start = start
        self.closed = False

    def close(self, **fields) -> None:
        """Emit the ``span.end`` event (idempotent)."""
        if self.closed:
            return
        self.closed = True
        merged = dict(self._fields, **fields)
        self._telemetry.emit("span.end", since=self._start, name=self.name,
                             span=self.span_id, parent=self.parent_id, **merged)

    def __enter__(self) -> str:
        self._token = _SPAN.set(self.span_id)
        return self.span_id

    def __exit__(self, *exc_info) -> None:
        _SPAN.reset(self._token)
        self.close()


def open_span(
    name: str,
    telemetry: Optional[Telemetry] = None,
    parent: Optional[str] = None,
    **fields,
) -> Optional[SpanHandle]:
    """Begin a span explicitly; returns ``None`` when telemetry is off.

    ``parent`` defaults to the ambient span.  The caller owns the handle
    and must :meth:`~SpanHandle.close` it on every path.
    """
    start = time.perf_counter()
    t = telemetry if telemetry is not None else get_telemetry()
    if not t.enabled:
        return None
    if parent is None:
        parent = _SPAN.get()
    span_id = new_span_id()
    t.emit("span.begin", name=name, span=span_id, parent=parent, **fields)
    return SpanHandle(name, span_id, parent, t, fields, start)


_DISABLED = nullcontext()


def span(name: str, telemetry: Optional[Telemetry] = None, **fields):
    """Scope a span over a ``with`` block; yields the span id (or ``None``).

    Emits ``span.begin`` / ``span.end`` and installs the id as the ambient
    parent for anything emitted inside the block.  When the telemetry is
    disabled the block runs untouched.
    """
    return open_span(name, telemetry, **fields) or _DISABLED
