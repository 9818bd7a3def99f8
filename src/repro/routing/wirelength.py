"""Wirelength metrics (Table 2's second half).

The paper computes wirelengths "from the direct flylines between pads/vias":
a net's length is the straight-line finger-to-via distance plus the short
layer-2 hop from the via to its ball.  The routed polyline length is also
exposed for richer comparisons (it upper-bounds the flyline length).

Two implementations of the flyline total coexist.  :func:`total_flyline_length`
walks one assignment net by net through the object model and is the
reference.  :func:`total_flyline_length_of_design` — the production metric
behind ``measure()`` and the exchange kernel — evaluates the same sum as one
vectorized expression over :class:`FlylineTables`, the static per-quadrant
geometry, and agrees with the reference to float rounding (~1e-15 relative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..assign import Assignment


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


def _net_indices(net_ids: np.ndarray, id_sorter: np.ndarray, ids) -> np.ndarray:
    """Netlist index of every net id in *ids*."""
    return id_sorter[np.searchsorted(net_ids, ids, sorter=id_sorter)]


@dataclass(frozen=True)
class FlylineTables:
    """The static flyline geometry of one quadrant as flat arrays.

    Slots are 0-based and nets are indexed in netlist order.  Only the
    finger a net lands on depends on the assignment; everything here is
    fixed by the quadrant.
    """

    #: net id by net index, and the index permutation that sorts them
    net_ids: np.ndarray
    id_sorter: np.ndarray
    #: x of every finger slot's centre (all fingers share ``finger_y``)
    finger_x: np.ndarray
    finger_y: float
    #: via position by net index
    via_x: np.ndarray
    via_y: np.ndarray
    #: fixed via -> ball hop length by net index
    via_ball: np.ndarray

    def net_slots(self, order: Sequence[int]) -> np.ndarray:
        """0-based slot of every net index under a slot-ordered id list."""
        ids = np.fromiter(order, dtype=np.int64, count=len(order))
        index_of_slot = _net_indices(self.net_ids, self.id_sorter, ids)
        net_slot = np.empty(len(ids), dtype=np.int64)
        net_slot[index_of_slot] = np.arange(len(ids), dtype=np.int64)
        return net_slot

    def total(self, net_slot: np.ndarray) -> float:
        """Total flyline length with net index ``k`` on slot ``net_slot[k]``."""
        dx = self.finger_x[net_slot] - self.via_x
        dy = self.finger_y - self.via_y
        return float(np.sum(np.hypot(dx, dy) + self.via_ball))


def flyline_tables(quadrant) -> FlylineTables:
    """The quadrant's :class:`FlylineTables`, built on first use and cached.

    A quadrant never changes once built, so the tables live on it for the
    rest of its life: every later measurement of any assignment of the
    quadrant reuses them.
    """
    tables = getattr(quadrant, "_flyline_tables", None)
    if tables is not None:
        return tables
    fingers = quadrant.fingers
    bumps = quadrant.bumps
    count = fingers.slot_count
    net_ids = np.fromiter((net.id for net in quadrant.netlist), dtype=np.int64)
    id_sorter = np.argsort(net_ids, kind="stable")
    # The arithmetic of FingerRow.slot_position and BumpArray.via_position /
    # ball_position, one array expression per finger row and ball row.
    finger_x = (np.arange(1, count + 1) - (count + 1) / 2.0) * fingers.pitch
    pitch = bumps.pitch
    via_x = np.empty(len(net_ids))
    via_y = np.empty(len(net_ids))
    via_ball = np.empty(len(net_ids))
    for row in range(1, bumps.row_count + 1):
        ids = np.asarray(bumps.row_nets(row), dtype=np.int64)
        index = _net_indices(net_ids, id_sorter, ids)
        ball_x = (np.arange(1, len(ids) + 1) - (len(ids) + 1) / 2.0) * pitch
        ball_y = bumps.row_y(row)
        row_via_x = ball_x - pitch / 2.0
        row_via_y = ball_y - pitch / 2.0
        via_x[index] = row_via_x
        via_y[index] = row_via_y
        via_ball[index] = np.hypot(row_via_x - ball_x, row_via_y - ball_y)
    tables = FlylineTables(
        net_ids=net_ids,
        id_sorter=id_sorter,
        finger_x=finger_x,
        finger_y=fingers.y,
        via_x=via_x,
        via_y=via_y,
        via_ball=via_ball,
    )
    quadrant._flyline_tables = tables
    return tables


def total_flyline_length_of_design(assignments: Dict) -> float:
    """Total flyline wirelength across every quadrant of a design."""
    total = 0.0
    for assignment in assignments.values():
        tables = flyline_tables(assignment.quadrant)
        total += tables.total(tables.net_slots(assignment.order))
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
