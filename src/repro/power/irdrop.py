"""High-level IR-drop analysis tying the design, pads and solvers together."""

from __future__ import annotations

from typing import Dict, Optional

from ..package import NetType, PackageDesign
from .compact import compact_ir_cost
from .fdsolver import FDSolver
from .grid import PowerGridConfig
from .pads import pad_nodes_for_grid, supply_pad_fractions


class IRDropAnalyzer:
    """Analyze core IR-drop for a design under a finger/pad assignment.

    Provides both the accurate finite-difference solve (used for the
    before/after numbers of Table 3 and the Fig.-6 experiment) and the
    compact proxy the SA exchange loop minimizes.
    """

    def __init__(
        self,
        design: PackageDesign,
        grid_config: Optional[PowerGridConfig] = None,
        net_type: Optional[NetType] = NetType.POWER,
    ) -> None:
        self.design = design
        self.grid_config = grid_config or PowerGridConfig()
        self.net_type = net_type
        self._solver = FDSolver(self.grid_config)

    def pad_fractions(self, assignments: Dict) -> list:
        """Perimeter fractions of the analyzed supply pads."""
        return supply_pad_fractions(
            self.design, assignments, net_type=self.net_type
        )

    def factorize(self, assignments: Dict):
        """Prefactorized grid for this assignment's supply pads.

        The returned :class:`~repro.kernels.irsolve.GridFactorization`
        re-solves injection vectors without refactoring; factorizations
        are cached on the underlying solver keyed by the pad set, so SA
        evaluations that revisit a pad configuration pay backsolves only.
        """
        nodes = pad_nodes_for_grid(
            self.design, assignments, self.grid_config, net_type=self.net_type
        )
        return self._solver.factorize(nodes)

    def max_drop(self, assignments: Dict) -> float:
        """Maximum core IR-drop in volts for the given assignment."""
        return self.factorize(assignments).solve().max_drop

    def compact_cost(self, assignments: Dict) -> float:
        """The fast delta_IR proxy the exchange method optimizes."""
        return compact_ir_cost(self.pad_fractions(assignments))

    def improvement(self, before: Dict, after: Dict) -> float:
        """Relative IR-drop improvement, as reported in Table 3.

        The paper computes ``(1 - IR_after / IR_before)``; returns a ratio
        (0.1061 means 10.61% better).
        """
        drop_before = self.max_drop(before)
        drop_after = self.max_drop(after)
        if drop_before <= 0:
            return 0.0
        return 1.0 - drop_after / drop_before
