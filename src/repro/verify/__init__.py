"""repro.verify — invariant checking, recovery policies, fault injection.

The paper's guarantees are invariants the rest of the library must keep at
runtime: assignments stay bijective and monotonic-legal, incremental costs
agree with their from-scratch re-derivation, IR-drop results stay finite
and non-negative.  This subsystem re-checks them on live objects and turns
violations into structured, machine-readable diagnostics:

``diagnostics``
    :class:`Diagnostic` records (code + severity + message) collected in
    :class:`VerificationReport`; detection never raises by itself.
``checkers``
    The invariant checkers: designs on ingest, assignments on output
    (including the real router and a scratch cost re-derivation), power
    results and engine job values.
``policy``
    Recovery policies (``off`` / ``strict`` / ``repair`` / ``degrade``)
    plus the monotonic re-legalization repair.
``workload``
    Deep verification of whole paper workloads — ``python -m repro check``.
``chaos``
    Deterministic fault injection (malformed circuits, NaN costs, cache
    corruption, worker crashes, timeouts) proving every fault surfaces as
    a typed :class:`~repro.errors.ReproError` or degrades gracefully.

``chaos`` registers job types and imports the runtime, so it is loaded
lazily (the job-type registry resolves ``chaos_*`` kinds on demand).
"""

from .checkers import (
    FASTCOST_RTOL,
    check_assignments,
    check_design,
    check_exchange_total,
    check_job_value,
    check_power_values,
    check_trace_events,
    check_wire_request,
)
from .diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    VerificationReport,
)
from .policy import (
    CLI_POLICIES,
    DEGRADE,
    OFF,
    POLICIES,
    REPAIR,
    STRICT,
    normalize,
    repair_assignment,
    repair_assignments,
)
from .workload import check_workload

__all__ = [
    "CLI_POLICIES",
    "DEGRADE",
    "ERROR",
    "FASTCOST_RTOL",
    "INFO",
    "OFF",
    "POLICIES",
    "REPAIR",
    "STRICT",
    "WARNING",
    "Diagnostic",
    "VerificationReport",
    "check_assignments",
    "check_design",
    "check_exchange_total",
    "check_job_value",
    "check_power_values",
    "check_trace_events",
    "check_wire_request",
    "check_workload",
    "normalize",
    "repair_assignment",
    "repair_assignments",
]
