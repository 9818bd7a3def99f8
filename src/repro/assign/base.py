"""Assignment representation and the assigner interface.

An :class:`Assignment` binds every net of a quadrant to one finger slot.  It
is the object all three assignment algorithms produce and the exchange step
mutates.  Slots are 1-based, left to right, matching the paper's
``F_1 .. F_alpha`` notation.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence

from ..errors import AssignmentError
from ..package import Quadrant


class Assignment:
    """A bijection between a quadrant's nets and its finger slots."""

    def __init__(self, quadrant: Quadrant, order: Sequence[int]) -> None:
        order = list(order)
        expected = set(net.id for net in quadrant.netlist)
        if len(order) != len(expected) or set(order) != expected:
            raise AssignmentError(
                "assignment order must be a permutation of the quadrant's nets: "
                f"got {len(order)} entries for {len(expected)} nets"
            )
        self.quadrant = quadrant
        self._order: List[int] = order
        self._slot_of: Dict[int, int] = {
            net_id: slot for slot, net_id in enumerate(order, start=1)
        }

    # -- queries -------------------------------------------------------------

    @property
    def order(self) -> List[int]:
        """Net ids by slot, leftmost first (a copy; mutate via :meth:`swap_slots`)."""
        return list(self._order)

    @property
    def slot_count(self) -> int:
        return len(self._order)

    def slot_of(self, net_id: int) -> int:
        """Finger slot (1-based) holding *net_id*."""
        try:
            return self._slot_of[net_id]
        except KeyError:
            raise AssignmentError(f"net {net_id} not in assignment") from None

    def net_at(self, slot: int) -> int:
        """Net id held by finger slot *slot* (1-based)."""
        if not (1 <= slot <= len(self._order)):
            raise AssignmentError(f"slot {slot} outside 1..{len(self._order)}")
        return self._order[slot - 1]

    def finger_position(self, net_id: int):
        """Physical centre of the finger carrying *net_id*."""
        return self.quadrant.fingers.slot_position(self.slot_of(net_id))

    # -- mutation --------------------------------------------------------------

    def swap_slots(self, slot_a: int, slot_b: int) -> None:
        """Exchange the nets held by two finger slots (in place)."""
        net_a = self.net_at(slot_a)
        net_b = self.net_at(slot_b)
        self._order[slot_a - 1] = net_b
        self._order[slot_b - 1] = net_a
        self._slot_of[net_a] = slot_b
        self._slot_of[net_b] = slot_a

    def copy(self) -> "Assignment":
        """An independent copy sharing the (immutable) quadrant."""
        return Assignment(self.quadrant, self._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self.quadrant is other.quadrant and self._order == other._order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Assignment({self._order})"


class Assigner(abc.ABC):
    """Interface of the three finger/pad assignment strategies."""

    #: Short name used in reports ("Random", "IFA", "DFA").
    name: str = "base"

    @abc.abstractmethod
    def assign(self, quadrant: Quadrant, seed: Optional[int] = None) -> Assignment:
        """Produce a monotonic-legal assignment for *quadrant*.

        ``seed`` only matters for randomized strategies; deterministic
        algorithms ignore it.
        """
