"""Metrics registry: named counters, gauges and fixed-bucket histograms.

The raw :class:`~repro.runtime.telemetry.Telemetry` counters are a flat
``name -> float`` dict; good for totals, useless for distributions.  The
registry adds typed instruments with a versioned on-trace form: calling
:meth:`MetricsRegistry.flush` emits one ``metrics`` event carrying a
snapshot of every instrument, so metric series survive the trip from pool
workers to the parent trace like any other event.

Instruments are cheap, lock-free (CPython-atomic) objects designed for hot
loops; the *disabled* path is a single attribute lookup because
``telemetry.metrics`` returns :data:`NULL_REGISTRY` on the no-op
telemetry, whose instruments discard everything.

Histograms use **fixed buckets** declared at creation: recording is a
bisect over the bound list and the snapshot is bounded in size no matter
how many values were recorded — exactly what a 16k-move SA delta series
needs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Optional, Sequence

#: Schema version of the ``metrics`` event payload.
METRICS_VERSION = 1

#: Default histogram bounds for SA cost deltas (costs are normalized near
#: 1.0, so genuine Eq.-3 deltas land between 1e-4 and 1e-1 in magnitude).
SA_DELTA_BUCKETS = (
    -0.1, -0.03, -0.01, -0.003, -0.001, -0.0001, 0.0,
    0.0001, 0.001, 0.003, 0.01, 0.03, 0.1,
)

#: Default bounds for engine queue-wait seconds.
QUEUE_WAIT_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "_registry")
    kind = "counter"

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value = 0.0
        self._registry = registry

    def inc(self, amount: float = 1) -> None:
        self.value += amount
        self._registry.dirty = True

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A last-write-wins measurement (plus running min/max)."""

    __slots__ = ("name", "value", "min", "max", "_registry")
    kind = "gauge"

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value: Optional[float] = None
        self.min = math.inf
        self.max = -math.inf
        self._registry = registry

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._registry.dirty = True

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "min": self.min if self.value is not None else None,
            "max": self.max if self.value is not None else None,
        }


class Histogram:
    """Fixed-bucket distribution: ``len(bounds) + 1`` counts.

    ``counts[i]`` covers ``bounds[i-1] < v <= bounds[i]``; the final bucket
    is the overflow above the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max", "_registry")
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float],
                 registry: "MetricsRegistry") -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds!r}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._registry = registry

    def record(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._registry.dirty = True

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Named instruments attached to one telemetry object.

    Instruments are memoized by name; asking for the same name with a
    different instrument type is a programming error and raises.
    :meth:`flush` emits a ``metrics`` event with the full snapshot — only
    when something was recorded since the previous flush, so redundant
    flush points (annealer end, worker exit, engine end) cost nothing.
    """

    def __init__(self, telemetry=None) -> None:
        self._telemetry = telemetry
        self._instruments: Dict[str, object] = {}
        self.dirty = False

    def _get(self, name: str, factory, kind: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"requested {kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name, self), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name, self), "gauge")

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        return self._get(name, lambda: Histogram(name, bounds, self), "histogram")

    def snapshot(self) -> Dict[str, dict]:
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }

    def flush(self, **fields) -> Optional[dict]:
        """Emit the registry snapshot as one ``metrics`` event.

        No-op (returns ``None``) when nothing was recorded since the last
        flush or no telemetry is attached.
        """
        if not self.dirty or self._telemetry is None:
            return None
        self.dirty = False
        return self._telemetry.emit(
            "metrics", version=METRICS_VERSION, metrics=self.snapshot(), **fields
        )


class _NullInstrument:
    """Accepts every record and keeps nothing."""

    __slots__ = ()
    kind = "null"

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def record(self, value: float) -> None:
        pass

    def snapshot(self) -> dict:  # pragma: no cover - trivial
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class _NullRegistry(MetricsRegistry):
    """The registry of the no-op telemetry: every instrument discards."""

    def __init__(self) -> None:
        super().__init__(telemetry=None)

    def counter(self, name: str):
        return _NULL_INSTRUMENT

    def gauge(self, name: str):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds: Sequence[float]):
        return _NULL_INSTRUMENT

    def flush(self, **fields) -> None:
        return None


NULL_REGISTRY = _NullRegistry()


def merge_histograms(snapshots: Sequence[dict]) -> Optional[dict]:
    """Sum histogram snapshots with identical bounds into one.

    Used by the trace analyser to combine per-job ``metrics`` events into a
    run-wide distribution; returns ``None`` for an empty input and raises
    on mismatched bounds.
    """
    merged: Optional[dict] = None
    for snap in snapshots:
        if merged is None:
            merged = {"kind": "histogram", "bounds": list(snap["bounds"]),
                      "counts": list(snap["counts"])}
            merged.update((key, snap[key]) for key in ("count", "sum", "min", "max"))
            continue
        if list(snap["bounds"]) != merged["bounds"]:
            raise ValueError("cannot merge histograms with different bounds")
        merged["counts"] = [a + b for a, b in zip(merged["counts"], snap["counts"])]
        merged["count"] += snap["count"]
        merged["sum"] += snap["sum"]
        for key, pick in (("min", min), ("max", max)):
            values = [v for v in (merged[key], snap[key]) if v is not None]
            merged[key] = pick(values) if values else None
    return merged
