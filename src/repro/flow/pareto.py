"""Density / IR-drop trade-off exploration (the Eq.-3 weight sweep).

Eq. 3's weights buy IR-drop with package density; a single weight choice
shows one point of that trade.  This module sweeps the density weight,
collects (density, IR-drop) outcomes and extracts the Pareto-efficient
subset — the curve a designer actually picks from.
"""

from __future__ import annotations

from ..assign import assign_design
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..assign import DFAAssigner
from ..exchange import CostWeights, FingerPadExchanger, SAParams
from ..power import IRDropAnalyzer, PowerGridConfig
from ..routing import max_density_of_design


@dataclass(frozen=True)
class TradeoffPoint:
    """One weight setting's outcome."""

    density_weight: float
    max_density: int
    max_ir_drop: float

    def dominates(self, other: "TradeoffPoint") -> bool:
        """Pareto dominance: no worse on both axes, better on one."""
        no_worse = (
            self.max_density <= other.max_density
            and self.max_ir_drop <= other.max_ir_drop
        )
        better = (
            self.max_density < other.max_density
            or self.max_ir_drop < other.max_ir_drop
        )
        return no_worse and better


@dataclass
class TradeoffCurve:
    """All sweep outcomes plus the efficient frontier."""

    points: List[TradeoffPoint] = field(default_factory=list)

    def frontier(self) -> List[TradeoffPoint]:
        """Pareto-efficient points, sorted by density."""
        efficient = [
            p
            for p in self.points
            if not any(q.dominates(p) for q in self.points)
        ]
        return sorted(
            efficient, key=lambda p: (p.max_density, p.max_ir_drop)
        )

    def render(self) -> str:
        lines = ["rho (density weight)   max density   max IR-drop (V)   frontier"]
        frontier = set(id(p) for p in self.frontier())
        for point in sorted(self.points, key=lambda p: p.density_weight):
            marker = "*" if id(point) in frontier else ""
            lines.append(
                f"{point.density_weight:>20}   {point.max_density:>11}   "
                f"{point.max_ir_drop:>15.6f}   {marker}"
            )
        return "\n".join(lines)


def sweep_density_weight(
    design,
    weights: Sequence[float] = (0.01, 0.04, 0.08, 0.2, 0.5),
    sa_params: Optional[SAParams] = None,
    grid_config: Optional[PowerGridConfig] = None,
    seed: int = 7,
) -> TradeoffCurve:
    """Run the exchange once per density weight and collect the trade-off."""
    initial = assign_design(DFAAssigner(), design)
    analyzer = IRDropAnalyzer(design, grid_config=grid_config)
    curve = TradeoffCurve()
    for rho in weights:
        exchanger = FingerPadExchanger(
            design,
            weights=CostWeights(ir=1.0, density=rho),
            params=sa_params,
        )
        result = exchanger.run(initial, seed=seed)
        curve.points.append(
            TradeoffPoint(
                density_weight=rho,
                max_density=max_density_of_design(result.after),
                max_ir_drop=analyzer.max_drop(result.after),
            )
        )
    return curve
