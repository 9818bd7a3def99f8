"""repro.obs — the observability layer.

Builds on the :mod:`repro.runtime.telemetry` primitives (event stream,
sinks, the active-telemetry context) and adds everything needed to *see*
a run:

- :mod:`~repro.obs.spans` — hierarchical spans with cross-process
  propagation through pool workers;
- :mod:`~repro.obs.metrics` — a registry of counters, gauges and
  fixed-bucket histograms shipped on-trace as versioned ``metrics``
  events;
- :mod:`~repro.obs.schema` — the versioned event schema and its
  validator (surfaced as ``repro.verify.check_trace_events`` and the
  ``repro check-trace`` CLI);
- :mod:`~repro.obs.trace` — trace loading, span-tree reconstruction and
  Chrome ``trace_event`` export (Perfetto / ``chrome://tracing``);
- :mod:`~repro.obs.stats` — the ``repro stats`` report (top spans by
  self-time, phase breakdown, acceptance curve, cache summary);
- :mod:`~repro.obs.profile` — per-job cProfile / sampling profilers
  behind ``--profile``;
- :mod:`~repro.obs.bench` — machine-readable ``BENCH_*.json`` perf
  records and their comparison;
- :mod:`~repro.obs.live` — process-wide live metric aggregation behind
  the daemon's ``GET /v1/stats``;
- :mod:`~repro.obs.curves` — bounded SA convergence-curve capture
  (``sa.curve`` events) and their SVG/JSON rendering;
- :mod:`~repro.obs.ledger` — the append-only perf-regression ledger
  behind ``repro bench run`` / ``repro bench compare``.

Only :mod:`~repro.obs.spans` and :mod:`~repro.obs.metrics` — the pieces
hot code paths touch — are imported eagerly; the analysis-side modules
load on first attribute access so that instrumented modules (the engine,
the annealer) never drag the verify layer into their import graph.
"""

from __future__ import annotations

from . import metrics, spans
from .metrics import (
    METRICS_VERSION,
    NULL_REGISTRY,
    QUEUE_WAIT_BUCKETS,
    SA_DELTA_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_histograms,
)
from .spans import SpanHandle, attached_to, current_span_id, new_span_id, open_span, span

#: Analysis-side submodules resolved lazily (PEP 562).
_LAZY_MODULES = (
    "schema", "trace", "stats", "profile", "bench", "live", "curves",
    "ledger",
)

#: Lazily re-exported names -> owning submodule.
_LAZY_NAMES = {
    "SCHEMA_VERSION": "schema",
    "validate_event": "schema",
    "validate_trace": "schema",
    "SpanNode": "trace",
    "load_trace": "trace",
    "build_span_tree": "trace",
    "check_spans": "trace",
    "to_chrome": "trace",
    "write_chrome": "trace",
    "render_stats": "stats",
    "stats_summary": "stats",
    "Profiler": "profile",
    "make_profiler": "profile",
    "write_bench_record": "bench",
    "load_bench_record": "bench",
    "compare_bench_records": "bench",
    "LiveRegistry": "live",
    "CurveRecorder": "curves",
    "render_curve_svg": "curves",
    "run_ledger": "ledger",
    "compare_ledger": "ledger",
}

__all__ = [
    "METRICS_VERSION",
    "NULL_REGISTRY",
    "QUEUE_WAIT_BUCKETS",
    "SA_DELTA_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanHandle",
    "attached_to",
    "current_span_id",
    "merge_histograms",
    "metrics",
    "new_span_id",
    "open_span",
    "span",
    "spans",
    *sorted(_LAZY_MODULES),
    *sorted(_LAZY_NAMES),
]


def __getattr__(name: str):
    import importlib

    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    owner = _LAZY_NAMES.get(name)
    if owner is not None:
        return getattr(importlib.import_module(f".{owner}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
