"""The versioned telemetry event schema and its validator.

Before this module the trace was a convention: every producer invented
field names and every consumer grepped for them.  The schema pins the
contract down — one catalog of event names with required/optional fields
and types, stamped into each trace via the ``trace.meta`` event the CLI
writes first::

    {"event": "trace.meta", "schema": 1, "tool": "repro", ...}

:func:`validate_trace` re-checks a live or on-disk trace against the
catalog and returns an ordinary
:class:`~repro.verify.diagnostics.VerificationReport`, which is how the
validator plugs into ``repro.verify`` (``verify.check_trace_events``) and
the ``repro check-trace`` CLI.

Versioning policy: adding an *optional* field or a new event name is
backward compatible and keeps ``SCHEMA_VERSION``; renaming or retyping a
required field bumps it, and the validator rejects traces stamped with a
newer version than it understands.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Version stamped into ``trace.meta`` and checked by the validator.
SCHEMA_VERSION = 1

_NUM = (int, float)
_STR = (str,)
_BOOL = (bool,)
_LIST = (list,)
_DICT = (dict,)
_OPT_STR = (str, type(None))

#: ``event name -> {field: allowed types}`` for *required* fields.  Every
#: event additionally requires ``event`` (str) and ``t`` (number >= 0),
#: checked structurally before the catalog lookup.
REQUIRED: Dict[str, Dict[str, tuple]] = {
    "trace.meta": {"schema": _NUM, "tool": _STR},
    "span.begin": {"name": _STR, "span": _STR, "parent": _OPT_STR},
    "span.end": {"name": _STR, "span": _STR, "parent": _OPT_STR, "seconds": _NUM},
    "engine.start": {"jobs": _NUM, "total": _NUM, "cached": _NUM, "pending": _NUM},
    "engine.end": {"total": _NUM, "failures": _NUM, "seconds": _NUM},
    "engine.degraded": {"reason": _STR, "unresolved": _NUM},
    "engine.pool_start": {"workers": _NUM},
    "job.cached": {"job": _STR, "kind": _STR},
    "job.journal": {"job": _STR, "kind": _STR},
    "journal.compact": {"records": _NUM, "bytes": _NUM, "reclaimed": _NUM},
    "checkpoint.saved": {"proposed": _NUM, "bytes": _NUM},
    "checkpoint.resumed": {"proposed": _NUM, "temperature": _NUM},
    "checkpoint.invalid": {"reason": _STR},
    "job.done": {"job": _STR, "kind": _STR, "seconds": _NUM, "attempts": _NUM, "mode": _STR},
    "job.error": {"job": _STR, "kind": _STR, "error": _STR, "attempt": _NUM},
    "job.failed": {"job": _STR, "kind": _STR, "error": _STR},
    "job.timeout": {"job": _STR, "kind": _STR, "timeout": _NUM},
    "job.invalid": {"job": _STR, "kind": _STR, "source": _STR, "codes": _LIST, "error": _STR},
    "cache.invalid": {"job": _STR, "kind": _STR, "reason": _STR},
    "cache.put": {"kind": _STR, "bytes": _NUM},
    "cache.evict": {"kind": _STR, "bytes": _NUM},
    "serve.start": {"host": _STR, "port": _NUM, "workers": _NUM},
    "serve.request": {"method": _STR, "path": _STR, "status": _NUM,
                      "seconds": _NUM},
    "serve.submit": {"job": _STR, "kind": _STR, "dedup": _BOOL},
    "serve.batch": {"size": _NUM, "waited": _NUM},
    "serve.reject": {"reason": _STR, "pending": _NUM},
    "serve.drain": {"pending": _NUM, "seconds": _NUM, "clean": _BOOL},
    "serve.recover": {"settled": _NUM, "inflight": _NUM, "failed": _NUM},
    "serve.stop": {"requests": _NUM, "seconds": _NUM},
    "sa.begin": {"initial_cost": _NUM, "initial_temp": _NUM, "steps": _NUM,
                 "moves_per_temp": _NUM},
    "sa.step": {"temperature": _NUM, "cost": _NUM, "acceptance": _NUM},
    "sa.end": {"final_cost": _NUM, "best_cost": _NUM, "proposed": _NUM,
               "accepted": _NUM, "accepted_uphill": _NUM, "acceptance_ratio": _NUM},
    "sa.nonfinite": {"cost": _STR, "temperature": _NUM},
    "sa.curve": {"points": _LIST, "stride": _NUM, "total_steps": _NUM},
    "sa.swap": {"round": _NUM, "chain_a": _NUM, "chain_b": _NUM,
                "accepted": _BOOL, "cost_a": _NUM, "cost_b": _NUM,
                "temp_a": _NUM, "temp_b": _NUM},
    "tempering.begin": {"chains": _NUM, "steps": _NUM, "swap_stride": _NUM,
                        "mode": _STR},
    "tempering.end": {"best_cost": _NUM, "chains": _NUM,
                      "swaps_proposed": _NUM, "swaps_accepted": _NUM},
    "tune.begin": {"circuit": _STR, "cells": _NUM},
    "tune.cell": {"circuit": _STR, "cost": _NUM, "seconds": _NUM},
    "tune.end": {"cells": _NUM, "front": _NUM},
    "kernel.stats": {"backend": _STR, "proposed": _NUM, "us_per_move": _NUM},
    "metrics": {"version": _NUM, "metrics": _DICT},
    "profile": {"mode": _STR, "top": _LIST},
    "verify.violation": {"stage": _STR, "policy": _STR, "codes": _LIST},
    "verify.repair": {"stage": _STR, "moved": _NUM, "ok": _BOOL},
    "verify.degrade": {"stage": _STR, "fallback": _STR},
    "experiment.seed": {"seconds": _NUM, "seed": _NUM},
    "fuzz.begin": {"cases": _NUM, "oracles": _LIST, "seed": _NUM},
    "fuzz.failure": {"oracle": _STR, "case": _STR, "problems": _LIST},
    "fuzz.shrink": {"oracle": _STR, "case": _STR, "evals": _NUM},
    "fuzz.end": {"cases": _NUM, "failures": _NUM, "skipped": _NUM,
                 "seconds": _NUM, "cases_per_s": _NUM},
}

#: Optional fields per event (on top of the always-optional ``span`` /
#: ``job`` attribution tags every event may carry).
OPTIONAL: Dict[str, Dict[str, tuple]] = {
    "trace.meta": {"command": _STR, "workload": _STR, "seed": _NUM, "jobs": _NUM,
                   "backend": _STR, "verify": _STR, "argv": _LIST, "profile": _STR},
    "span.begin": {},
    "span.end": {"status": _STR},
    "engine.end": {"hits": _NUM, "misses": _NUM, "writes": _NUM, "invalid": _NUM,
                   "evicted": _NUM},
    "checkpoint.saved": {"seconds": _NUM, "path": _STR},
    "checkpoint.invalid": {"path": _STR},
    "serve.submit": {"wait": _BOOL},
    "job.done": {"queue_wait": _NUM},
    "job.error": {"error_class": _STR, "traceback": _STR},
    "job.failed": {"error_class": _OPT_STR},
    "sa.end": {"seconds": _NUM, "moves_per_s": _NUM, "nonfinite_rejected": _NUM},
    "sa.curve": {"circuit": _STR, "budget": _NUM},
    "tempering.begin": {"ladder_ratio": _NUM},
    "tune.cell": {"cached": _BOOL},
    "kernel.stats": {"swaps": _NUM, "seconds": _NUM},
    "profile": {"seconds": _NUM},
}

#: Fields any event may carry without being declared per-event.
COMMON_OPTIONAL = ("span", "job", "name", "parent", "status")


def validate_event(event, index: int = 0) -> List[Tuple[str, str]]:
    """Problems with one event as ``(code, message)`` pairs (empty = valid)."""
    problems: List[Tuple[str, str]] = []
    if not isinstance(event, dict):
        return [("trace.not-object", f"event #{index} is not a JSON object")]
    name = event.get("event")
    if not isinstance(name, str) or not name:
        return [("trace.missing-event", f"event #{index} has no 'event' name")]
    t = event.get("t")
    if not isinstance(t, _NUM) or isinstance(t, bool) or t < 0:
        problems.append(
            ("trace.bad-timestamp", f"event #{index} ({name}): 't' must be a number >= 0")
        )
    required = REQUIRED.get(name)
    if required is None:
        problems.append(("trace.unknown-event", f"event #{index}: unknown event {name!r}"))
        return problems
    optional = OPTIONAL.get(name, {})
    for field, types in required.items():
        if field not in event:
            problems.append(
                ("trace.missing-field", f"event #{index} ({name}): missing field {field!r}")
            )
        elif not isinstance(event[field], types) or (
            isinstance(event[field], bool) and bool not in types
        ):
            problems.append(
                ("trace.bad-type",
                 f"event #{index} ({name}): field {field!r} is "
                 f"{type(event[field]).__name__}, expected "
                 f"{'/'.join(t.__name__ for t in types)}")
            )
    for field, value in event.items():
        if field in ("event", "t") or field in required or field in COMMON_OPTIONAL:
            continue
        types = optional.get(field)
        if types is None:
            continue  # extra fields are forward-compatible, not an error
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            problems.append(
                ("trace.bad-type",
                 f"event #{index} ({name}): optional field {field!r} is "
                 f"{type(value).__name__}, expected "
                 f"{'/'.join(t.__name__ for t in types)}")
            )
    return problems


def validate_trace(events, subject: str = "trace"):
    """Validate a whole event sequence against the schema.

    Returns a :class:`~repro.verify.diagnostics.VerificationReport`:
    structural violations (missing/bad required fields, bad timestamps,
    unsupported schema version) are errors; unknown event names and a
    missing ``trace.meta`` stamp are warnings, so ad-hoc instrumentation
    degrades the report without failing it.
    """
    from ..verify.diagnostics import VerificationReport

    report = VerificationReport(subject=subject)
    events = list(events)
    if not events:
        report.error("trace.empty", "trace contains no events")
        return report
    meta: Optional[dict] = None
    for index, event in enumerate(events):
        for code, message in validate_event(event, index):
            if code == "trace.unknown-event":
                report.warning(code, message)
            else:
                report.error(code, message)
        if meta is None and isinstance(event, dict) and event.get("event") == "trace.meta":
            meta = event
    if meta is None:
        report.warning(
            "trace.no-meta",
            "trace carries no trace.meta stamp; schema version unknown",
        )
    else:
        version = meta.get("schema")
        if isinstance(version, _NUM) and version > SCHEMA_VERSION:
            report.error(
                "trace.schema-version",
                f"trace schema {version} is newer than supported {SCHEMA_VERSION}",
            )
    return report
