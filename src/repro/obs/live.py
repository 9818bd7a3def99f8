"""Live metric aggregation behind the daemon's ``GET /v1/stats``.

:mod:`repro.obs.metrics` instruments code with per-telemetry registries
whose snapshots ride the trace as ``metrics`` events; :mod:`repro.obs.stats`
merges them *after* a run ends.  This module closes the gap for long-running
processes (the ``repro serve`` daemon): a :class:`LiveRegistry` is a
process-wide, thread-safe aggregate that

- hosts **directly instrumented** series (the daemon's request-latency
  histogram) with per-label-set children —
  ``registry.histogram("repro_serve_request_seconds", bounds, endpoint=...)``;
- **ingests** ``metrics`` events as they arrive from the telemetry sink
  (pool workers flush one snapshot per job; the engine flushes cumulative
  snapshots per batch) and folds them into running totals, so
  ``/v1/stats`` reflects every job finished so far instead of waiting for
  trace post-processing.

Ingest semantics.  A ``metrics`` event is a *cumulative snapshot* of one
source registry, attributed by its ``job`` tag (worker flushes) or untagged
(the host process's own registry).  Folding therefore computes the **delta**
against the previous snapshot from the same source and adds only that, with
counter-reset detection: a snapshot whose count went *backwards* means the
source restarted (a re-executed job label reuses a fresh worker telemetry),
so the whole snapshot is folded as new.  Histogram deltas reuse the bucket
layout contract of :func:`repro.obs.metrics.merge_histograms`.

:meth:`LiveRegistry.snapshot` is the read side: every family and labeled
child as JSON, served under ``metrics`` in the ``/v1/stats`` payload.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_right
from typing import Dict, Optional, Sequence, Tuple

#: Version of the ``/v1/stats`` live-snapshot payload.
LIVE_SCHEMA = 2

#: Default bounds for HTTP request latency (seconds).
REQUEST_SECONDS_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Sources tracked for delta-folding before the oldest are dropped.  A
#: dropped source that flushes again is treated as a counter reset (its
#: whole snapshot folds), which can only over-count, never lose data.
MAX_SOURCES = 1024

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(raw: str, prefix: str = "repro_") -> str:
    """A valid Prometheus metric name for a repro instrument name.

    ``sa.delta`` -> ``repro_sa_delta``; names already carrying the prefix
    (direct serve instrumentation) pass through unchanged.
    """
    name = _INVALID_CHARS.sub("_", raw)
    if not name.startswith(prefix):
        name = prefix + name
    if not _NAME_RE.match(name):  # pragma: no cover - prefix guarantees it
        name = "_" + name
    return name


_LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class LiveCounter:
    """One labeled counter child (monotonic)."""

    __slots__ = ("labels", "value", "_lock")
    kind = "counter"

    def __init__(self, labels: _LabelItems, lock: threading.Lock) -> None:
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class LiveGauge:
    """One labeled gauge child (last write wins)."""

    __slots__ = ("labels", "value", "_lock")
    kind = "gauge"

    def __init__(self, labels: _LabelItems, lock: threading.Lock) -> None:
        self.labels = labels
        self.value: Optional[float] = None
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value = (self.value or 0.0) + amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class LiveHistogram:
    """One labeled fixed-bucket histogram child.

    Bucket ``counts[i]`` covers ``bounds[i-1] < v <= bounds[i]``; the last
    slot is the overflow bucket, exactly matching
    :class:`repro.obs.metrics.Histogram` so snapshots merge losslessly.
    """

    __slots__ = ("labels", "bounds", "counts", "count", "total", "_lock")
    kind = "histogram"

    def __init__(self, labels: _LabelItems, bounds: Sequence[float],
                 lock: threading.Lock) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(
                f"histogram bounds must be sorted and non-empty: {bounds!r}"
            )
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._lock = lock

    def record(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_right(self.bounds, value)] += 1
            self.count += 1
            self.total += value

    def add_counts(self, bounds: Sequence[float], counts: Sequence[int],
                   count: int, total: float) -> None:
        """Fold a pre-bucketed delta in (ingest path)."""
        if tuple(float(b) for b in bounds) != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram delta has {len(counts)} buckets, "
                f"expected {len(self.counts)}"
            )
        with self._lock:
            for i, c in enumerate(counts):
                self.counts[i] += c
            self.count += count
            self.total += total

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind,
                "bounds": list(self.bounds),
                "counts": list(self.counts),
                "count": self.count,
                "sum": self.total,
            }


class _LiveMetric:
    """One metric family: kind, help text and its labeled children."""

    __slots__ = ("name", "kind", "help", "bounds", "children")

    def __init__(self, name: str, kind: str, help_text: str,
                 bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.bounds = tuple(float(b) for b in bounds) if bounds else None
        self.children: Dict[_LabelItems, object] = {}


class LiveRegistry:
    """Process-wide live metric aggregate served by ``/v1/stats``.

    Thread-safe throughout: direct instruments are updated from the event
    loop and from engine worker threads; :meth:`ingest` is called from the
    telemetry sink (worker thread); :meth:`snapshot` from HTTP handlers.
    """

    def __init__(self, max_sources: int = MAX_SOURCES) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _LiveMetric] = {}
        #: Last cumulative snapshot seen per (source tag, instrument name),
        #: for delta folding.  Ordered dict semantics via insertion order.
        self._sources: Dict[object, Dict[str, dict]] = {}
        self._max_sources = max(1, int(max_sources))
        self.ingested_events = 0

    # -- family / child management ----------------------------------------

    def _family(self, raw: str, kind: str, help_text: Optional[str],
                bounds: Optional[Sequence[float]] = None) -> _LiveMetric:
        name = metric_name(raw)
        with self._lock:
            family = self._metrics.get(name)
            if family is None:
                family = _LiveMetric(
                    name, kind, help_text or f"repro metric {raw}", bounds
                )
                self._metrics[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"requested {kind}"
                )
            return family

    def _child(self, family: _LiveMetric, labels: Dict[str, str]):
        for label in labels:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        key = _label_key(labels)
        with self._lock:
            child = family.children.get(key)
            if child is None:
                if family.kind == "counter":
                    child = LiveCounter(key, self._lock)
                elif family.kind == "gauge":
                    child = LiveGauge(key, self._lock)
                else:
                    child = LiveHistogram(key, family.bounds, self._lock)
                family.children[key] = child
            return child

    def counter(self, name: str, help: Optional[str] = None, **labels) -> LiveCounter:
        return self._child(self._family(name, "counter", help), labels)

    def gauge(self, name: str, help: Optional[str] = None, **labels) -> LiveGauge:
        return self._child(self._family(name, "gauge", help), labels)

    def histogram(self, name: str, bounds: Sequence[float],
                  help: Optional[str] = None, **labels) -> LiveHistogram:
        family = self._family(name, "histogram", help, bounds)
        if family.bounds is None:  # registered earlier without bounds
            family.bounds = tuple(float(b) for b in bounds)
        return self._child(family, labels)

    # -- ingest ------------------------------------------------------------

    def ingest(self, event: dict) -> bool:
        """Fold one telemetry event into the aggregate, if it carries
        metrics.  Returns ``True`` when the event was a ``metrics`` event.

        Safe to install directly as (part of) a telemetry sink: non-metric
        events return immediately.
        """
        if event.get("event") != "metrics":
            return False
        snapshots = event.get("metrics")
        if not isinstance(snapshots, dict):
            return False
        source = event.get("job")
        labels = {}
        if isinstance(source, str):
            # Spec labels are "kind[digest12]"; the kind is the useful
            # cardinality-bounded series label, the digest is not.
            kind = source.split("[", 1)[0]
            if kind:
                labels["kind"] = kind
        previous = self._sources.get(source)
        if previous is None:
            previous = {}
            with self._lock:
                self._sources[source] = previous
                while len(self._sources) > self._max_sources:
                    oldest = next(iter(self._sources))
                    del self._sources[oldest]
        for name, snap in snapshots.items():
            if not isinstance(snap, dict):
                continue
            try:
                self._fold(name, snap, previous.get(name), labels)
            except (ValueError, KeyError, TypeError):
                # A malformed or bounds-mismatched snapshot must never
                # break the sink; skip the series and keep serving.
                continue
            previous[name] = snap
        self.ingested_events += 1
        return True

    def _fold(self, name: str, snap: dict, last: Optional[dict],
              labels: Dict[str, str]) -> None:
        kind = snap.get("kind")
        if kind == "counter":
            value = float(snap.get("value", 0.0))
            prior = float(last.get("value", 0.0)) if last else 0.0
            delta = value - prior if value >= prior else value  # reset
            if delta:
                self.counter(name, **labels).inc(delta)
        elif kind == "gauge":
            value = snap.get("value")
            if value is not None:
                self.gauge(name, **labels).set(float(value))
        elif kind == "histogram":
            bounds = snap["bounds"]
            counts = [int(c) for c in snap["counts"]]
            count = int(snap.get("count", sum(counts)))
            total = float(snap.get("sum", 0.0))
            if last and int(last.get("count", 0)) <= count and \
                    list(last.get("bounds", bounds)) == list(bounds):
                # Cumulative re-flush from the same source: fold the delta.
                lcounts = [int(c) for c in last["counts"]]
                counts = [a - b for a, b in zip(counts, lcounts)]
                count -= int(last.get("count", 0))
                total -= float(last.get("sum", 0.0))
                if any(c < 0 for c in counts):
                    # Mixed reset: fall back to folding the full snapshot.
                    counts = [int(c) for c in snap["counts"]]
                    count = int(snap.get("count", sum(counts)))
                    total = float(snap.get("sum", 0.0))
            if count:
                self.histogram(name, bounds, **labels).add_counts(
                    bounds, counts, count, total
                )

    # -- read side ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready snapshot of every family and child (``/v1/stats``)."""
        with self._lock:
            families = [
                (family, list(family.children.items()))
                for family in self._metrics.values()
            ]
        out: Dict[str, dict] = {}
        for family, children in sorted(families, key=lambda f: f[0].name):
            series = []
            for key, child in sorted(children, key=lambda c: c[0]):
                row = child.snapshot()
                row["labels"] = dict(key)
                series.append(row)
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return out
