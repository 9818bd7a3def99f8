"""Assignment representation and the assigner interface.

An :class:`Assignment` binds every net of a quadrant to one finger slot.  It
is the object all three assignment algorithms produce and the exchange step
mutates.  Slots are 1-based, left to right, matching the paper's
``F_1 .. F_alpha`` notation.
"""

from __future__ import annotations

import abc
from array import array
from typing import List, Optional, Sequence

import numpy as np

from ..errors import AssignmentError
from ..package import Quadrant, quadrant_tables


class Assignment:
    """A bijection between a quadrant's nets and its finger slots: the net ids in
    slot order and their inverse, int64 ``array`` items viewed as :attr:`net_slot`."""

    def __init__(self, quadrant: Quadrant, order: Sequence[int]) -> None:
        order = list(order)
        self.quadrant = quadrant
        self._tables = quadrant_tables(quadrant)
        self._slots = array("q", self._tables.net_slots(order).tobytes())
        self._order: List[int] = order

    # -- queries -------------------------------------------------------------

    @property
    def order(self) -> List[int]:
        """Net ids by slot, leftmost first (a copy; mutate via :meth:`swap_slots`)."""
        return list(self._order)

    @property
    def net_slot(self) -> np.ndarray:
        """0-based slot of every net, indexed as in the quadrant's
        :class:`~repro.package.QuadrantTables`: a read-only int64 view that
        follows later :meth:`swap_slots` calls (copy it for a snapshot)."""
        view = np.frombuffer(self._slots, dtype=np.int64)
        view.flags.writeable = False
        return view

    @property
    def slot_count(self) -> int:
        return len(self._order)

    def slot_of(self, net_id: int) -> int:
        """Finger slot (1-based) holding *net_id*."""
        try:
            return self._slots[self.quadrant.netlist.index_by_id[net_id]] + 1
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
        index_by_id = self.quadrant.netlist.index_by_id
        self._slots[index_by_id[net_a]] = slot_b - 1
        self._slots[index_by_id[net_b]] = slot_a - 1

    def copy(self) -> "Assignment":
        """An independent copy sharing the (immutable) quadrant."""
        clone = Assignment.__new__(Assignment)
        clone.quadrant = self.quadrant
        clone._tables = self._tables
        clone._slots = self._slots[:]
        clone._order = list(self._order)
        return clone

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
