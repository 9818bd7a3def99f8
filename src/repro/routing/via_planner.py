"""Via planning (paper section 2.1 and [10]).

Each net uses at most one via, fixed at the bottom-left corner of its bump
ball; at most one via sits between four adjacent bump balls.  Both properties
hold by construction in this planner, and the planner verifies the monotonic
via-order rule: on every horizontal line, the via order must equal the
finger order of the connected nets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..assign import Assignment
from ..errors import RoutingError
from ..geometry import Point


@dataclass(frozen=True)
class Via:
    """A planned layer-1-to-layer-2 via for one net."""

    net_id: int
    position: Point
    row: int
    candidate_index: int


def plan_vias(assignment: Assignment) -> Dict[int, Via]:
    """Plan one via per net at its ball's bottom-left candidate site."""
    quadrant = assignment.quadrant
    vias: Dict[int, Via] = {}
    for net_id in quadrant.netlist.ids.tolist():
        ball = quadrant.bumps.ball_of(net_id)
        vias[net_id] = Via(
            net_id=net_id,
            position=quadrant.bumps.via_position(net_id),
            row=ball.row,
            candidate_index=ball.col - 1,
        )
    return vias


def verify_via_order(assignment: Assignment, vias: Dict[int, Via]) -> None:
    """Check the monotonic via-order rule of [10].

    For two vias on the same horizontal line, the one at the smaller x must
    belong to the net on the smaller finger: "if V_b1,x < V_b2,x and
    V_b1,y = V_b2,y, a1 is certainly smaller than a2".
    """
    per_row: Dict[int, List[Via]] = {}
    for via in vias.values():
        per_row.setdefault(via.row, []).append(via)
    for row, row_vias in per_row.items():
        row_vias.sort(key=lambda via: via.position.x)
        slots = [assignment.slot_of(via.net_id) for via in row_vias]
        if slots != sorted(slots):
            raise RoutingError(
                f"via order on row {row} disagrees with the finger order: "
                f"slots {slots}"
            )


def via_capacity_check(assignment: Assignment) -> None:
    """Ensure no two nets share a via candidate site (<= 1 via per site)."""
    quadrant = assignment.quadrant
    used = set()
    for net_id in quadrant.netlist.ids.tolist():
        ball = quadrant.bumps.ball_of(net_id)
        key = (ball.row, ball.col - 1)
        if key in used:
            raise RoutingError(f"via candidate {key} used twice")
        used.add(key)
