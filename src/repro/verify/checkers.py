"""Invariant checkers: designs on ingest, assignments on output, power results.

Constructors already validate what they can see (``NetList`` rejects
duplicate ids, ``Assignment`` demands a permutation).  These checkers
re-establish the paper's invariants *at runtime*, from scratch, against the
live objects — catching what construction-time checks cannot: mutation
after the fact, drift between the incremental caches and the exact model,
and corrupt values coming back from worker processes or the disk cache.

Every checker returns a :class:`~repro.verify.diagnostics.VerificationReport`
and never raises on a finding; reacting is the policy layer's job.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, Mapping, Optional

from ..errors import ReproError
from .diagnostics import VerificationReport

#: Relative tolerance for the incremental-vs-scratch cost re-derivation.
#: The caches are algebraically exact (same float operations in a different
#: grouping), so the bound is tight; it only absorbs summation-order noise.
FASTCOST_RTOL = 1e-9


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# -- ingest: circuits / package designs ------------------------------------


def check_design(design, report: Optional[VerificationReport] = None) -> VerificationReport:
    """Validate a :class:`~repro.package.PackageDesign` on ingest.

    Codes: ``design.empty``, ``design.duplicate-net``, ``design.finger-count``,
    ``design.tier-range``, ``design.technology``, ``design.ball-orphan``.
    """
    report = report if report is not None else VerificationReport(
        subject=getattr(design, "name", "design")
    )
    quadrants = getattr(design, "quadrants", None)
    if not quadrants:
        report.error("design.empty", "design has no quadrants")
        return report

    technology = design.technology
    if min(
        technology.bump_ball_space,
        technology.via_diameter,
        technology.finger_width,
        technology.finger_height,
    ) <= 0 or technology.finger_space < 0:
        report.error(
            "design.technology",
            "package technology has non-positive dimensions",
        )

    psi = design.stacking.tier_count
    seen_ids: Dict[int, str] = {}
    for side, quadrant in design:
        ids = quadrant.netlist.ids.tolist()
        if len(set(ids)) != len(ids):
            report.error(
                "design.duplicate-net",
                f"{side.value}: duplicate net ids in netlist",
                side=side.value,
            )
        for net_id in ids:
            if net_id in seen_ids:
                report.warning(
                    "design.duplicate-net",
                    f"net id {net_id} appears on both {seen_ids[net_id]} "
                    f"and {side.value}",
                    net=net_id,
                )
            else:
                seen_ids[net_id] = side.value
        if quadrant.fingers.slot_count != quadrant.net_count:
            report.error(
                "design.finger-count",
                f"{side.value}: {quadrant.fingers.slot_count} finger slots "
                f"for {quadrant.net_count} nets",
                side=side.value,
            )
        rows = range(1, quadrant.row_count + 1)
        balls = set(chain.from_iterable(map(quadrant.row_nets, rows)))
        netlist = quadrant.netlist
        for net_id, name, tier in zip(ids, netlist.names, netlist.tiers.tolist()):
            if not (1 <= tier <= psi):
                report.error(
                    "design.tier-range",
                    f"{side.value}: net {name} on tier {tier}, "
                    f"stack has {psi} tier(s)",
                    side=side.value,
                    net=net_id,
                )
            if net_id not in balls:
                report.error(
                    "design.ball-orphan",
                    f"{side.value}: net {name} has no bump ball",
                    side=side.value,
                    net=net_id,
                )
    return report


# -- output: assignments ---------------------------------------------------


def check_assignments(
    design,
    assignments: Mapping,
    baseline: Optional[Mapping] = None,
    deep: bool = True,
    report: Optional[VerificationReport] = None,
) -> VerificationReport:
    """Validate a ``{side: Assignment}`` produced by an assigner or exchange.

    Shallow checks (always): completeness over the design's sides, a
    bijective net↔slot mapping, and monotonic legality re-derived from the
    bump rows (Kubo–Takahashi rule).  Deep checks (``deep=True``) also run
    the *real* monotonic router on every quadrant and hold the exchange
    kernel's incremental cost to the exact from-scratch Eq.-3 model.

    Codes: ``assign.missing-side``, ``assign.extra-side``,
    ``assign.not-bijective``, ``assign.monotonic``, ``assign.router``,
    ``assign.density-drift``, ``assign.fastcost-drift``.
    """
    from ..assign import row_violations

    report = report if report is not None else VerificationReport(
        subject=f"{getattr(design, 'name', 'design')} assignments"
    )

    for side, __ in design:
        if side not in assignments:
            report.error(
                "assign.missing-side",
                f"no assignment for side {side.value}",
                side=side.value,
            )
    for side in assignments:
        if side not in design.quadrants:
            report.error(
                "assign.extra-side",
                f"assignment for absent side {getattr(side, 'value', side)}",
            )
    if not report.ok:
        return report

    for side, quadrant in design:
        assignment = assignments[side]
        expected = set(quadrant.netlist.ids.tolist())
        order = assignment.order
        if len(order) != len(expected) or set(order) != expected:
            report.error(
                "assign.not-bijective",
                f"{side.value}: order is not a permutation of the quadrant's "
                f"{len(expected)} nets ({len(order)} entries, "
                f"{len(set(order))} distinct)",
                side=side.value,
            )
            continue
        violations = row_violations(assignment)
        if violations:
            row, left, right = violations[0]
            report.error(
                "assign.monotonic",
                f"{side.value}: {len(violations)} monotonic violation(s); "
                f"first on row {row}: net {left} left of net {right} but "
                f"finger {assignment.slot_of(left)} > "
                f"{assignment.slot_of(right)}",
                side=side.value,
                violations=len(violations),
            )

    if deep and report.ok:
        _check_routing(design, assignments, report)
        _check_fastcost(design, assignments, baseline, report)
    return report


def _check_routing(design, assignments: Mapping, report: VerificationReport) -> None:
    """Route every quadrant for real and cross-check the density model."""
    from ..routing import MonotonicRouter, max_density

    router = MonotonicRouter()
    for side, __ in design:
        assignment = assignments[side]
        try:
            result = router.route(assignment)
        except ReproError as exc:
            report.error(
                "assign.router",
                f"{side.value}: monotonic router rejected a supposedly "
                f"legal assignment: {exc}",
                side=side.value,
            )
            continue
        estimated = max_density(assignment)
        if result.max_density != estimated:
            report.error(
                "assign.density-drift",
                f"{side.value}: routed max density {result.max_density} != "
                f"estimated {estimated}",
                side=side.value,
                routed=result.max_density,
                estimated=estimated,
            )


def _check_fastcost(
    design,
    assignments: Mapping,
    baseline: Optional[Mapping],
    report: VerificationReport,
) -> None:
    """The kernel's incremental Eq.-3 cost against the from-scratch model."""
    from ..exchange import ExchangeCost
    from ..kernels import ArrayExchangeKernel

    if not any(quadrant.supply_net_ids() for __, quadrant in design):
        # No supply nets: Eq. 3 has no IR term to normalize against, so
        # there is no incremental cost to cross-check.  Not a violation.
        report.info(
            "assign.fastcost-skipped",
            "no POWER/GROUND nets; exchange-cost re-derivation skipped",
        )
        return
    base = baseline if baseline is not None else assignments
    try:
        exact = ExchangeCost(design, base).total(assignments)
        kernel = ArrayExchangeKernel(design, base)
        kernel.restore([
            arrays.tables.indices(assignments[arrays.side].order).tolist()
            for arrays in kernel.sides
        ])
        incremental = kernel.cost()
    except (ReproError, IndexError) as exc:  # IndexError: an id of no net
        report.error(
            "assign.fastcost-drift",
            f"exchange cost could not be evaluated: {exc}",
        )
        return
    if not (math.isfinite(exact) and math.isfinite(incremental)):
        report.error(
            "assign.fastcost-drift",
            f"exchange cost is non-finite (exact {exact}, "
            f"incremental {incremental})",
        )
        return
    scale = max(abs(exact), abs(incremental), 1.0)
    if abs(exact - incremental) > FASTCOST_RTOL * scale:
        report.error(
            "assign.fastcost-drift",
            f"incremental cost {incremental!r} drifted from the scratch "
            f"re-derivation {exact!r}",
            exact=exact,
            incremental=incremental,
        )


def check_exchange_total(
    design,
    baseline: Mapping,
    assignments: Mapping,
    claimed: float,
    weights=None,
    net_type="POWER",
    split_networks: bool = False,
    track_all_rows: bool = True,
    demand=None,
    report: Optional[VerificationReport] = None,
) -> VerificationReport:
    """Cross-check a *claimed* Eq.-3 total against the exact scratch model.

    This is the parity oracle for the array exchange kernel: the kernel's
    incrementally maintained total for *assignments* (relative to the SA
    *baseline*) must agree with :class:`~repro.exchange.ExchangeCost` — a
    full from-scratch re-derivation through the object model — within
    ``FASTCOST_RTOL``.

    ``net_type`` accepts the enum or its name so engine jobs can pass
    cached JSON params straight through; ``demand`` must be the one the
    kernel weighed its IR term with.

    Codes: ``exchange.total-drift``, ``exchange.total-error``.
    """
    from ..exchange import ExchangeCost
    from ..package import NetType

    report = report if report is not None else VerificationReport(
        subject=f"{getattr(design, 'name', 'design')} exchange total"
    )
    if isinstance(net_type, str):
        net_type = NetType[net_type]
    try:
        exact = ExchangeCost(
            design,
            baseline,
            weights=weights,
            net_type=net_type,
            demand=demand,
            track_all_rows=track_all_rows,
            split_networks=split_networks,
        ).total(assignments)
    except ReproError as exc:
        report.error(
            "exchange.total-error",
            f"exact Eq.-3 model could not evaluate the assignments: {exc}",
        )
        return report
    if not (_finite(exact) and _finite(claimed)):
        report.error(
            "exchange.total-drift",
            f"non-finite exchange total (exact {exact!r}, claimed {claimed!r})",
        )
        return report
    scale = max(abs(exact), abs(claimed), 1.0)
    if abs(exact - claimed) > FASTCOST_RTOL * scale:
        report.error(
            "exchange.total-drift",
            f"claimed exchange total {claimed!r} drifted from the exact "
            f"re-derivation {exact!r}",
            exact=exact,
            claimed=claimed,
        )
    return report


# -- power results ---------------------------------------------------------


def check_power_values(
    values: Mapping,
    report: Optional[VerificationReport] = None,
) -> VerificationReport:
    """Validate named IR-drop quantities: every value finite and >= 0.

    Codes: ``power.nonfinite``, ``power.negative``.
    """
    report = report if report is not None else VerificationReport(subject="power")
    for name, value in values.items():
        if value is None:
            continue
        if not _finite(value):
            report.error(
                "power.nonfinite",
                f"{name} is non-finite: {value!r}",
                metric=name,
            )
        elif value < 0:
            report.error(
                "power.negative",
                f"{name} is negative: {value!r}",
                metric=name,
                value=value,
            )
    return report


# -- job values (engine results) -------------------------------------------

#: Per-kind required keys of the built-in job types; unknown kinds only get
#: the generic deep scan for non-finite numbers.
_JOB_SCHEMAS: Dict[str, tuple] = {
    "table2_cell": (
        "circuit", "assigner", "max_density", "wirelength", "flyline_length",
    ),
    "codesign": (
        "circuit", "tiers", "density_after_assignment",
        "density_after_exchange", "ir_improvement", "bonding_improvement",
        "max_ir_drop_initial", "max_ir_drop_final", "sa",
    ),
    "fig6": ("random_mv", "regular_mv", "optimized_mv"),
    "fuzz_probe": ("circuit", "max_density", "flyline_length", "seed"),
}

#: Job-value fields that must additionally be non-negative.
_NON_NEGATIVE = frozenset(
    {
        "max_density", "wirelength", "flyline_length",
        "density_after_assignment", "density_after_exchange",
        "max_ir_drop_initial", "max_ir_drop_final",
        "random_mv", "regular_mv", "optimized_mv",
    }
)


def _scan_finite(value, path: str, report: VerificationReport) -> None:
    """Recursively flag every non-finite number in a JSON-ish value."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            report.error(
                "job.nonfinite",
                f"{path or 'value'} is non-finite: {value!r}",
                field=path,
            )
        return
    if isinstance(value, Mapping):
        for key in value:
            _scan_finite(value[key], f"{path}.{key}" if path else str(key), report)
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _scan_finite(item, f"{path}[{index}]", report)


def check_job_value(
    kind: str,
    value,
    report: Optional[VerificationReport] = None,
) -> VerificationReport:
    """Validate one engine job result before it is cached or tabulated.

    Codes: ``job.schema``, ``job.nonfinite``, ``job.negative``.
    """
    report = report if report is not None else VerificationReport(
        subject=f"{kind} result"
    )
    schema = _JOB_SCHEMAS.get(kind)
    if schema is not None:
        if not isinstance(value, Mapping):
            report.error(
                "job.schema",
                f"expected a mapping with keys {schema}, "
                f"got {type(value).__name__}",
            )
            return report
        missing = [key for key in schema if key not in value]
        if missing:
            report.error(
                "job.schema",
                f"missing required key(s): {', '.join(missing)}",
                missing=missing,
            )
    _scan_finite(value, "", report)
    if isinstance(value, Mapping):
        for name in _NON_NEGATIVE:
            field_value = value.get(name)
            if _finite(field_value) and field_value < 0:
                report.error(
                    "job.negative",
                    f"{name} is negative: {field_value!r}",
                    field=name,
                    value=field_value,
                )
    return report


def check_trace_events(events, subject: str = "trace") -> VerificationReport:
    """Validate a telemetry trace: event schema + span-tree structure.

    The observability half of the verify layer (``repro check-trace``):
    every event must match the versioned schema catalog
    (:mod:`repro.obs.schema`) and the ``span.begin``/``span.end`` events
    must reconstruct into a single rooted tree with no orphans and no
    unclosed spans (:func:`repro.obs.trace.check_spans`).
    """
    from ..obs.schema import validate_trace
    from ..obs.trace import check_spans

    report = validate_trace(events, subject=subject)
    report.extend(check_spans(events, subject=subject))
    return report


def check_wire_request(payload, subject: str = "wire request") -> VerificationReport:
    """Validate a serve wire-schema submit payload (``POST /v1/jobs``).

    Lifts :func:`repro.serve.wire.validate_request`'s ``(code, message)``
    pairs into a standard report, so the wire contract is checkable with
    the same machinery as designs, traces and job values.  A resolvable
    payload whose ``kind`` is not a registered job type gets a *warning*
    (registration is lazy and deployment-dependent), not an error.
    """
    from ..runtime.spec import resolve_job_type
    from ..serve.wire import validate_request

    report = VerificationReport(subject=subject)
    for code, message in validate_request(payload):
        report.error(code, message)
    if report.ok and isinstance(payload, dict):
        kind = payload.get("kind")
        try:
            resolve_job_type(kind)
        except KeyError:
            report.warning(
                "wire.unknown-kind",
                f"job kind {kind!r} is not registered in this process",
            )
    return report
