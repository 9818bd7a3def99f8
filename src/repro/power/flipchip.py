"""Flip-chip (area-array) power delivery, for comparison with wire-bond.

Paper section 2.4: "Compared wire-bond packaging with flip-chip packaging,
the IR-drop problem of a wire-bond package is worse than a flip-chip
package.  The main reason is that the distance from the power pad to the
module in a flip-chip package is shorter" — wire-bond confines supply pads
to the die boundary, flip-chip drops C4 bumps across the whole area.  The
paper adopts wire-bond "due to the design cost"; this module implements the
flip-chip alternative so the trade-off is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import PowerModelError
from .fdsolver import FDSolver, IRDropResult
from .grid import PowerGridConfig


def area_pad_nodes(
    config: PowerGridConfig, pads_per_side: int, margin: float = 0.1
) -> List[Tuple[int, int]]:
    """C4 supply-bump locations: a uniform ``k x k`` array over the die.

    ``margin`` keeps the outermost bumps away from the die edge (fraction
    of the edge length), as real C4 arrays do.
    """
    if pads_per_side < 1:
        raise PowerModelError("need at least one pad per side")
    if not (0.0 <= margin < 0.5):
        raise PowerModelError("margin must be in [0, 0.5)")
    g, k = config.size, pads_per_side
    span = 1.0 - 2.0 * margin
    spots = [0.5] if k == 1 else [margin + span * i / (k - 1) for i in range(k)]
    coords = [min(int(spot * g), g - 1) for spot in spots]
    return sorted({(x, y) for x in coords for y in coords})


@dataclass
class PackagingComparison:
    """Wire-bond vs flip-chip IR-drop with the same pad budget."""

    wirebond: IRDropResult
    flipchip: IRDropResult

    @property
    def wirebond_max_drop(self) -> float:
        return self.wirebond.max_drop

    @property
    def flipchip_max_drop(self) -> float:
        return self.flipchip.max_drop

    @property
    def flipchip_advantage(self) -> float:
        """Relative IR-drop reduction of flip-chip over wire-bond."""
        if self.wirebond.max_drop <= 0:
            return 0.0
        return 1.0 - self.flipchip.max_drop / self.wirebond.max_drop


def compare_packaging(
    config: PowerGridConfig,
    pad_count: int,
    current_map: Optional[np.ndarray] = None,
) -> PackagingComparison:
    """Solve the same core with boundary pads vs an area array.

    ``pad_count`` is the supply-pad budget; wire-bond spreads it evenly
    around the boundary ring, flip-chip uses the nearest ``k x k`` array
    with ``k = round(sqrt(pad_count))``.
    """
    if pad_count < 1:
        raise PowerModelError("pad_count must be >= 1")
    solver = FDSolver(config, current_map=current_map)

    boundary_fractions = [(i + 0.5) / pad_count for i in range(pad_count)]
    wirebond = solver.solve_fractions(boundary_fractions)

    k = max(1, round(pad_count ** 0.5))
    flipchip = solver.factorize(area_pad_nodes(config, k)).solve()

    return PackagingComparison(wirebond=wirebond, flipchip=flipchip)
