"""Wirelength metrics (Table 2's second half).

The paper computes wirelengths "from the direct flylines between pads/vias":
a net's length is the straight-line finger-to-via distance plus the short
layer-2 hop from the via to its ball.  The routed polyline length is also
exposed for richer comparisons (it upper-bounds the flyline length).

Two implementations of the flyline total coexist.  :func:`total_flyline_length`
walks one assignment net by net through the object model and is the
reference.  :func:`total_flyline_length_of_design` — the production metric
behind ``measure()`` and the exchange kernel — evaluates the same sum as one
vectorized expression over the flyline geometry of the quadrant's cached
:class:`~repro.package.tables.QuadrantTables`, and agrees with the reference
to float rounding (~1e-15 relative).
"""

from __future__ import annotations

from typing import Dict

from ..assign import Assignment
from ..package.tables import quadrant_tables


def net_flyline_length(assignment: Assignment, net_id: int) -> float:
    """Direct flyline length of one net: finger -> via -> ball."""
    quadrant = assignment.quadrant
    finger = assignment.finger_position(net_id)
    via = quadrant.bumps.via_position(net_id)
    ball = quadrant.bumps.ball_position(net_id)
    return finger.euclidean(via) + via.euclidean(ball)


def total_flyline_length(assignment: Assignment) -> float:
    """Total flyline wirelength of a quadrant assignment (Table 2 metric)."""
    return sum(
        net_flyline_length(assignment, net.id)
        for net in assignment.quadrant.netlist
    )


def total_flyline_length_of_design(assignments: Dict) -> float:
    """Total flyline wirelength across every quadrant of a design."""
    total = 0.0
    for assignment in assignments.values():
        tables = quadrant_tables(assignment.quadrant)
        total += tables.flyline_total(tables.net_slots(assignment.order))
    return total


def wirelength_by_row(assignment: Assignment) -> Dict[int, float]:
    """Flyline wirelength aggregated per bump row ``{row: length}``."""
    quadrant = assignment.quadrant
    per_row: Dict[int, float] = {}
    for net in quadrant.netlist:
        row = quadrant.ball_row(net.id)
        per_row[row] = per_row.get(row, 0.0) + net_flyline_length(
            assignment, net.id
        )
    return per_row
