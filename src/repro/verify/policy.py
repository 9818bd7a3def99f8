"""Recovery policies: what a failed invariant check *does*.

``off``
    No checks run; the pre-verification behaviour.
``strict``
    Any error-severity diagnostic raises :class:`~repro.errors.VerificationError`.
``repair``
    Where a repair exists (an illegal assignment can be re-legalized, an
    invalid job result can be recomputed), apply it and re-check; raise
    only when the repair did not restore the invariant.
``degrade``
    Fall back to a simpler-but-trusted path (IFA instead of a misbehaving
    assigner, serial instead of pool execution) and record the downgrade in
    telemetry instead of failing the run.

The policy value travels as a plain string (CLI flags, job params, JSON
specs); :func:`normalize` is the single validation point.
"""

from __future__ import annotations

from typing import Dict, Mapping

OFF = "off"
STRICT = "strict"
REPAIR = "repair"
DEGRADE = "degrade"

#: Policies accepted by the CLI's ``--verify`` flag; ``degrade`` is reachable
#: programmatically (flow/engine internals) but not exposed as a flag value.
CLI_POLICIES = (OFF, STRICT, REPAIR)
POLICIES = (OFF, STRICT, REPAIR, DEGRADE)


def normalize(policy) -> str:
    """Validate and canonicalize a policy value (None means ``off``)."""
    if policy is None:
        return OFF
    value = str(policy).lower()
    if value not in POLICIES:
        raise ValueError(f"verify policy must be one of {POLICIES}, got {policy!r}")
    return value


# -- repairs ---------------------------------------------------------------


def repair_assignment(assignment) -> int:
    """Re-legalize one assignment in place; returns the number of nets moved.

    The monotonic rule only constrains nets whose balls share a bump row:
    their fingers must appear in ball order.  The minimal legality-restoring
    repair therefore keeps the *set* of slots each row occupies (so density
    on other rows is untouched) and permutes the nets of each row back into
    ball order within those slots.  The result is always legal: per row the
    slots are sorted and the nets re-enter left to right.
    """
    quadrant = assignment.quadrant
    moved = 0
    for row in range(1, quadrant.row_count + 1):
        nets = quadrant.row_nets(row)
        slots = sorted(assignment.slot_of(net_id) for net_id in nets)
        for net_id, slot in zip(nets, slots):
            current = assignment.slot_of(net_id)
            if current != slot:
                assignment.swap_slots(current, slot)
                moved += 1
    return moved


def repair_assignments(design, assignments: Mapping) -> Dict:
    """Re-legalize every quadrant's assignment; returns ``{side: moved}``."""
    return {
        side: repair_assignment(assignments[side])
        for side, __ in design
        if side in assignments
    }
