"""Monotonic-legality checking.

The monotonic routing rule of [10] (adopted by the paper, section 3.1) fixes
each net's via at the bottom-left corner of its bump ball and demands that
the finger order agree with the via order on every horizontal line: for two
nets with balls in the same bump row, the one whose ball is further left must
also own the further-left finger.  An assignment with this property always
admits a legal (detour-free) monotonic routing; one without it never does.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import LegalityError
from ..package import quadrant_tables
from .base import Assignment


def row_violations(assignment: Assignment) -> List[Tuple[int, int, int]]:
    """All monotonic-rule violations of *assignment*.

    Returns a list of ``(row, net_left, net_right)`` triples where
    ``net_left``'s ball is left of ``net_right``'s in ``row`` but its finger
    is to the right.  An empty list means the assignment is legal.
    """
    quadrant = assignment.quadrant
    violations = []
    for row in range(1, quadrant.row_count + 1):
        nets = quadrant.row_nets(row)
        for left, right in zip(nets, nets[1:]):
            if assignment.slot_of(left) > assignment.slot_of(right):
                violations.append((row, left, right))
    return violations


def is_legal(assignment: Assignment) -> bool:
    """True when *assignment* satisfies the monotonic routing rule."""
    return not row_violations(assignment)


def check_legal(assignment: Assignment) -> None:
    """Raise :class:`LegalityError` when *assignment* is illegal.

    Screens every bump row of the quadrant's cached arrays on the
    assignment's ``net_slot`` (slots must rise along the ball order); only
    an illegal order pays for :func:`row_violations`.
    """
    tables = quadrant_tables(assignment.quadrant)
    net_slot = assignment.net_slot
    if all((np.diff(net_slot[nets]) > 0).all() for nets in tables.row_nets):
        return
    violations = row_violations(assignment)
    if violations:
        row, left, right = violations[0]
        raise LegalityError(
            f"monotonic rule violated on row {row}: net {left} (ball left of "
            f"net {right}) sits on finger {assignment.slot_of(left)} > "
            f"{assignment.slot_of(right)}; {len(violations)} violation(s) total"
        )


def swap_is_legal(assignment: Assignment, slot_a: int, slot_b: int) -> bool:
    """Would exchanging two *adjacent* slots keep the assignment legal?

    This is the paper's range constraint specialized to the adjacent swaps
    of the exchange method (Fig. 14): swapping neighbouring fingers is legal
    exactly when the two nets' balls lie in different bump rows, because only
    same-row nets have a mutual order constraint.
    """
    if abs(slot_a - slot_b) != 1:
        raise LegalityError("swap_is_legal only reasons about adjacent slots")
    quadrant = assignment.quadrant
    net_a = assignment.net_at(slot_a)
    net_b = assignment.net_at(slot_b)
    return quadrant.ball_row(net_a) != quadrant.ball_row(net_b)


def exchange_range(assignment: Assignment, net_id: int) -> Tuple[int, int]:
    """The paper's range constraint: slots net *net_id* may legally occupy.

    The net may move anywhere strictly between the fingers of its same-row
    neighbours (the balls immediately left and right of its own ball).  In
    Fig. 5(B)'s example, net 6 at ``F_5`` may move between ``F_3`` and
    ``F_7`` exclusive — i.e. slots 3..7 with the boundaries excluded.
    Returns the inclusive slot range ``(lo, hi)``.
    """
    quadrant = assignment.quadrant
    row = quadrant.ball_row(net_id)
    row_nets = quadrant.row_nets(row)
    index = row_nets.index(net_id)
    lo = 1
    hi = assignment.slot_count
    if index > 0:
        lo = assignment.slot_of(row_nets[index - 1]) + 1
    if index < len(row_nets) - 1:
        hi = assignment.slot_of(row_nets[index + 1]) - 1
    return (lo, hi)
