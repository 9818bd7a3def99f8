"""The static per-quadrant lookup arrays every measurement shares.

Pad mapping, run density, monotonic legality, flyline wirelength and the
exchange kernel all ask a quadrant the same questions — which index net id
``k`` has, which bump row holds its ball, which nets are supply pads, where
its fingers and vias sit — and none of the answers depend on the
assignment.  :func:`quadrant_tables` answers them once as flat NumPy arrays
(nets indexed in netlist order, 0-based slots), cached on the quadrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import AssignmentError
from .net import NET_TYPES, NetType
from .quadrant import Quadrant

#: A dense id -> index gather table while the id span is at most this many
#: net counts; sparser (hand-written, JSON-loaded) ids use ``searchsorted``.
DENSE_ID_SPAN = 4


@dataclass(frozen=True)
class QuadrantTables:
    """One quadrant's static structure as flat arrays (see module doc)."""

    #: net id by net index
    net_ids: np.ndarray
    #: smallest net id and, when the ids are dense, net index by ``id - id_base``
    id_base: int
    index_of_id: Optional[np.ndarray]
    #: the permutation sorting ``net_ids`` (sparse ids only)
    id_sorter: Optional[np.ndarray]
    #: ball row by net index (1 = outermost)
    rows: np.ndarray
    #: net indices of every bump row in ball order; entry ``r - 1`` is row ``r``
    row_nets: List[np.ndarray]
    #: position of each net within its own ball row (its via index)
    via_index: np.ndarray
    #: POWER, GROUND and (key ``None``) any-supply net indices, netlist order
    type_nets: Dict[Optional[NetType], np.ndarray]
    #: x of every finger slot's centre (all fingers share ``finger_y``)
    finger_x: np.ndarray
    finger_y: float
    #: via position and the fixed via -> ball hop length by net index
    via_x: np.ndarray
    via_y: np.ndarray
    via_ball: np.ndarray

    def indices(self, ids) -> np.ndarray:
        """Net index of every net id in *ids*; an id of no net (below the
        smallest, past the largest or in a gap between ids) raises
        :class:`IndexError`."""
        ids = np.asarray(ids, dtype=np.int64)
        if self.index_of_id is not None:
            index = self.index_of_id[ids - self.id_base]
        else:
            index = self.id_sorter[
                np.searchsorted(self.net_ids, ids, sorter=self.id_sorter)
            ]
        # a gap id finds -1 in the dense table or its neighbour in the
        # sorted ids, and an id below the smallest wraps round: every one of
        # them lands on a net whose id differs
        wrong = self.net_ids[index] != ids
        if wrong.any():
            raise IndexError(f"net id {ids[wrong][0]} is no net of the quadrant")
        return index

    def net_slots(self, order: Sequence[int]) -> np.ndarray:
        """0-based slot of every net index under a slot-ordered id list (the
        :class:`~repro.assign.Assignment` constructor's one conversion); raises
        :class:`~repro.errors.AssignmentError` unless *order* is a permutation
        of the quadrant's (integer) net ids."""
        ids, count = np.asarray(order), len(self.net_ids)
        if ids.shape == (count,) and ids.dtype.kind in "iu":
            try:
                index = self.indices(ids)
            except IndexError:  # an id of no net
                pass
            else:
                net_slot = np.full(count, -1, dtype=np.int64)
                net_slot[index] = np.arange(count, dtype=np.int64)
                if net_slot.min() >= 0:  # a duplicate leaves some net unplaced
                    return net_slot
        raise AssignmentError(
            "assignment order must be a permutation of the quadrant's nets: "
            f"got {len(order)} entries for {count} nets"
        )

    def flyline_total(self, net_slot: np.ndarray) -> float:
        """Total flyline length with net index ``k`` on slot ``net_slot[k]``."""
        dx = self.finger_x[net_slot] - self.via_x
        dy = self.finger_y - self.via_y
        return float(np.sum(np.hypot(dx, dy) + self.via_ball))


def quadrant_tables(quadrant: Quadrant) -> QuadrantTables:
    """The quadrant's :class:`QuadrantTables`, built on first use and cached.

    A quadrant never changes once built, so the tables live on it for the
    rest of its life: every later measurement of any assignment of the
    quadrant reuses them.
    """
    tables = getattr(quadrant, "_tables", None)
    if tables is None:
        tables = _build(quadrant)
        quadrant._tables = tables
    return tables


def _build(quadrant: Quadrant) -> QuadrantTables:
    netlist = quadrant.netlist
    count = len(netlist)
    net_ids = netlist.ids
    id_base = int(net_ids.min())
    span = int(net_ids.max()) - id_base + 1
    index_of_id = id_sorter = None
    if span <= DENSE_ID_SPAN * count:
        index_of_id = np.full(span, -1, dtype=np.int64)
        index_of_id[net_ids - id_base] = np.arange(count, dtype=np.int64)
    else:
        id_sorter = np.argsort(net_ids, kind="stable")
    codes = netlist.types
    supply = (NetType.POWER, NetType.GROUND)
    type_nets = {t: np.flatnonzero(codes == NET_TYPES.index(t)) for t in supply}
    type_nets[None] = np.flatnonzero(codes != NET_TYPES.index(NetType.SIGNAL))
    fingers = quadrant.fingers  # one slot per net (Quadrant checks it)
    tables = QuadrantTables(
        net_ids=net_ids,
        id_base=id_base,
        index_of_id=index_of_id,
        id_sorter=id_sorter,
        rows=np.empty(count, dtype=np.int32),
        row_nets=[],
        via_index=np.empty(count, dtype=np.int32),
        type_nets=type_nets,
        finger_x=(np.arange(1, count + 1) - (count + 1) / 2.0) * fingers.pitch,
        finger_y=fingers.y,
        via_x=np.empty(count),
        via_y=np.empty(count),
        via_ball=np.empty(count),
    )
    # The arithmetic of FingerRow.slot_position (above) and
    # BumpArray.via_position / ball_position, one expression per ball row.
    bumps = quadrant.bumps
    pitch = bumps.pitch
    for row in range(1, bumps.row_count + 1):
        index = tables.indices(bumps.row_nets(row))
        tables.row_nets.append(index)
        tables.rows[index] = row
        tables.via_index[index] = np.arange(len(index))
        ball_x = (np.arange(1, len(index) + 1) - (len(index) + 1) / 2.0) * pitch
        ball_y = bumps.row_y(row)
        tables.via_x[index] = ball_x - pitch / 2.0
        tables.via_y[index] = ball_y - pitch / 2.0
        tables.via_ball[index] = np.hypot(
            tables.via_x[index] - ball_x, tables.via_y[index] - ball_y
        )
    return tables
