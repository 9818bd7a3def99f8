"""Move generation for the finger/pad exchange (paper Fig. 14, lines 4-8).

A move exchanges two *adjacent* finger slots within one quadrant:

* in a 2-D IC (``psi == 1``) only power pads are picked — signal pad
  positions do not influence core IR-drop;
* in a stacking IC (``psi > 1``) any pad may be picked, because the bonding
  term rewards interleaving tiers on signal pads too;
* the swap must respect the range constraint: the two nets' balls must lie
  in different bump rows, otherwise the monotonic order would break and "the
  monotonic routing result is non-existent in the package".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..assign import swap_is_legal
from ..geometry import Side
from ..package import PackageDesign

#: Draws per ``propose`` before it gives up.  ``ArrayExchangeKernel`` reads
#: the same constant, so both move sources consume the rng identically.
MAX_ATTEMPTS = 16


@dataclass(frozen=True)
class SwapMove:
    """Exchange of the nets on two adjacent finger slots of one side."""

    side: Side
    slot_a: int
    slot_b: int


class MoveGenerator:
    """Draws random legal adjacent swaps over a whole design."""

    def __init__(
        self,
        design: PackageDesign,
        assignments: Dict,
        power_only: Optional[bool] = None,
    ) -> None:
        self.design = design
        self.assignments = assignments
        psi = design.stacking.tier_count
        # Paper Fig. 14 lines 4-7: power pads only for 2-D ICs.
        self.power_only = (psi == 1) if power_only is None else power_only
        self._candidates = self._collect_candidates()

    def _collect_candidates(self) -> List[Tuple[Side, int]]:
        """(side, net_id) pairs eligible for being picked as F_a."""
        candidates: List[Tuple[Side, int]] = []
        for side, quadrant in self.design:
            netlist = quadrant.netlist
            net_ids = netlist.supply_ids() if self.power_only else netlist.ids.tolist()
            candidates.extend((side, net_id) for net_id in net_ids)
        return candidates

    def propose(self, rng: random.Random) -> Optional[SwapMove]:
        """One random legal move, or ``None`` if the attempts ran out."""
        if not self._candidates:
            return None
        for __ in range(MAX_ATTEMPTS):
            side, net_id = rng.choice(self._candidates)
            assignment = self.assignments[side]
            slot = assignment.slot_of(net_id)
            direction = rng.choice((-1, 1))
            neighbour = slot + direction
            if not (1 <= neighbour <= assignment.slot_count):
                neighbour = slot - direction
                if not (1 <= neighbour <= assignment.slot_count):
                    continue
            lo, hi = sorted((slot, neighbour))
            if swap_is_legal(assignment, lo, hi):
                return SwapMove(side=side, slot_a=lo, slot_b=hi)
        return None

    def apply(self, move: SwapMove) -> None:
        self.assignments[move.side].swap_slots(move.slot_a, move.slot_b)

    def undo(self, move: SwapMove) -> None:
        # Swapping the same pair again restores the previous state.
        self.assignments[move.side].swap_slots(move.slot_a, move.slot_b)
