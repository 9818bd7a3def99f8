"""The quadrant: the unit sub-problem of finger/pad planning.

The package area is partitioned into four triangular parts by its diagonals
(paper Fig. 2) "and solve the package problems individually (as used in
[10])".  A :class:`Quadrant` bundles everything one sub-problem needs: the
nets, their bump balls and the finger row.  All assignment algorithms
(random / IFA / DFA), the density estimator, the monotonic router and the
exchange step operate on quadrants.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import PackageModelError
from ..geometry import Side
from .bump import BumpArray
from .finger import FingerRow
from .net import NET_TYPES, Net, NetList, NetType


class Quadrant:
    """One side of the package: nets + bump balls + finger row."""

    def __init__(
        self,
        netlist: NetList,
        bumps: BumpArray,
        fingers: Optional[FingerRow] = None,
        side: Side = Side.BOTTOM,
    ) -> None:
        bumps.validate_against(netlist.ids)
        if fingers is None:
            fingers = FingerRow(slot_count=len(netlist))
        if fingers.slot_count != len(netlist):
            raise PackageModelError(
                f"finger row has {fingers.slot_count} slots "
                f"but the quadrant holds {len(netlist)} nets"
            )
        self.netlist = netlist
        self.bumps = bumps
        self.fingers = fingers
        self.side = side

    # -- convenience accessors ----------------------------------------------

    @property
    def net_count(self) -> int:
        return len(self.netlist)

    @property
    def row_count(self) -> int:
        return self.bumps.row_count

    def net(self, net_id: int) -> Net:
        return self.netlist.by_id(net_id)

    def ball_row(self, net_id: int) -> int:
        """Bump-row index (1 = outermost) of the net's ball."""
        return self.bumps.row_of(net_id)

    def ball_col(self, net_id: int) -> int:
        """Bump-column index within its row of the net's ball."""
        return self.bumps.ball_of(net_id).col

    def row_nets(self, row: int) -> List[int]:
        return self.bumps.row_nets(row)

    def supply_net_ids(self) -> List[int]:
        """Power/ground nets of this quadrant."""
        return self.netlist.supply_ids()

    def highest_row_nets(self) -> List[int]:
        """Nets of the highest horizontal line (nearest the fingers).

        These are the section boundaries of the increased-density tracker
        (paper Eq. 2).
        """
        return self.bumps.row_nets(self.bumps.row_count)

    def describe(self) -> str:
        """One-line human-readable summary."""
        rows = ", ".join(
            str(self.bumps.row_size(row)) for row in range(1, self.row_count + 1)
        )
        return (
            f"Quadrant({self.side.value}: {self.net_count} nets, "
            f"{self.row_count} rows [{rows}])"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


def quadrant_from_rows(
    rows: Sequence[Sequence[int]],
    supply_ids: Sequence[int] = (),
    tiers: Optional[dict] = None,
    pitch: float = 1.0,
    fingers: Optional[FingerRow] = None,
    side: Side = Side.BOTTOM,
) -> Quadrant:
    """Build a quadrant directly from bump-row net ids (handy for examples).

    Parameters
    ----------
    rows:
        ``rows[0]`` is the outermost bump row (left to right), the last entry
        is the row nearest the fingers — the same layout :class:`BumpArray`
        expects.
    supply_ids:
        Net ids to mark as POWER nets.
    tiers:
        Optional mapping ``net_id -> tier`` for stacking-IC designs.
    """
    supply = set(supply_ids)
    tiers = tiers or {}
    ids = [net_id for row in rows for net_id in row]
    netlist = NetList.from_columns(
        ids,
        [f"N{net_id}" for net_id in ids],
        [NET_TYPES.index(NetType.POWER) if net_id in supply else 0 for net_id in ids],
        [tiers.get(net_id, 1) for net_id in ids],
    )
    bumps = BumpArray(rows, pitch=pitch)
    return Quadrant(netlist, bumps, fingers=fingers, side=side)
