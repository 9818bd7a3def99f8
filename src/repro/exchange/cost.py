"""The exchange cost function (paper Eq. 3).

    Cost = lambda * delta_IR + rho * ID + phi * omega

``delta_IR`` is the compact IR proxy (power-pad gap spread, optionally
weighted by a core current demand), ``ID`` the
increased density of Eq. 2 and ``omega`` the bonding-wire zero-bit count.
Each term is normalized against the state right after the congestion-driven
assignment so the weights compare like against like:

* the IR term is ``compact_cost / compact_cost_initial`` (1.0 at the start,
  < 1 when pads spread out);
* ID is already a small relative integer (0 at the start);
* the omega term is ``omega / max(omega_initial, 1)`` (1.0 at the start).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import PowerModelError
from ..package import NetType, PackageDesign
from ..power import (
    compact_ir_cost,
    demand_weights,
    supply_pad_fractions,
    weighted_compact_cost,
)
from ..power.compact import ZERO_BASELINE
from .bonding import omega_of_design
from .sections import DesignSectionTracker


@dataclass(frozen=True)
class CostWeights:
    """The lambda / rho / phi weights of Eq. 3."""

    ir: float = 1.0
    density: float = 0.08
    bonding: float = 0.5

    def __post_init__(self) -> None:
        weights = (self.ir, self.density, self.bonding)
        if not all(math.isfinite(weight) for weight in weights):
            raise ValueError("cost weights must be finite")
        if min(weights) < 0:
            raise ValueError("cost weights must be non-negative")


class ExchangeCost:
    """Evaluates Eq. 3 for a design under its current assignments.

    Every call re-derives the terms from scratch: the reference the array
    kernel is proven against.
    """

    def __init__(
        self,
        design: PackageDesign,
        baseline_assignments: Dict,
        weights: Optional[CostWeights] = None,
        net_type: Optional[NetType] = NetType.POWER,
        demand=None,
        track_all_rows: bool = True,
        split_networks: bool = False,
    ) -> None:
        self.design = design
        self.weights = weights or CostWeights()
        self.net_type = net_type
        self.psi = design.stacking.tier_count
        self.sections = DesignSectionTracker(
            baseline_assignments, all_rows=track_all_rows
        )
        # The paper's uniform gap-spread proxy, or for chips with hot blocks
        # the demand-weighted one over the kernel's own weight table, read
        # at each gap's half-slot midpoint.
        if demand is None:
            self._gap_cost = compact_ir_cost
        else:
            table = demand_weights(demand, design.ring_slot_count())
            count = len(table)

            def weight(fraction: float) -> int:
                return table[round(fraction * count) % count]

            self._gap_cost = lambda fractions: weighted_compact_cost(
                fractions, weight
            )
        # split_networks scores the VDD and VSS networks separately — both
        # must be evenly supplied, not just their union.
        self.split_networks = split_networks
        self._ir_initial = self._raw_ir(baseline_assignments)
        if not self._ir_initial:
            raise PowerModelError(ZERO_BASELINE)
        self._omega_initial = max(
            omega_of_design(baseline_assignments, self.psi), 1
        )

    def _raw_ir(self, assignments: Dict) -> float:
        if self.split_networks:
            return sum(
                self._gap_cost(
                    supply_pad_fractions(
                        self.design, assignments, net_type=network
                    )
                )
                for network in (NetType.POWER, NetType.GROUND)
            )
        return self._gap_cost(
            supply_pad_fractions(self.design, assignments, net_type=self.net_type)
        )

    # -- individual terms ------------------------------------------------------

    def ir_term(self, assignments: Dict) -> float:
        """Normalized compact IR proxy (1.0 right after assignment)."""
        return self._raw_ir(assignments) / self._ir_initial

    def density_term(self, assignments: Dict) -> float:
        """Eq. 2's ID over the whole design (0 right after assignment)."""
        return float(self.sections.increased_density(assignments))

    def bonding_term(self, assignments: Dict) -> float:
        """Normalized omega (1.0 right after assignment; 0 when perfect)."""
        return omega_of_design(assignments, self.psi) / self._omega_initial

    # -- Eq. 3 -------------------------------------------------------------------

    def total(self, assignments: Dict) -> float:
        """The full Eq.-3 cost of the current assignments."""
        value = self.weights.ir * self.ir_term(assignments)
        value += self.weights.density * self.density_term(assignments)
        if self.psi > 1:
            value += self.weights.bonding * self.bonding_term(assignments)
        return value

    def breakdown(self, assignments: Dict) -> Dict[str, float]:
        """Per-term values for reports and debugging."""
        result = eq3_terms(self, assignments)
        result["total"] = self.total(assignments)
        return result


def eq3_terms(cost, assignments: Dict) -> Dict[str, float]:
    """The Eq.-3 terms *cost* weighs, keyed like ``breakdown``."""
    result = {
        "ir": cost.ir_term(assignments),
        "density": cost.density_term(assignments),
    }
    if cost.psi > 1:
        result["bonding"] = cost.bonding_term(assignments)
    return result
