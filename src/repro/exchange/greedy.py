"""Deterministic greedy exchange — the SA-free baseline.

The paper chose simulated annealing for the exchange step; the obvious
cheaper alternative is pure hill-climbing (sweep all adjacent legal swaps,
keep strict improvements, repeat).  This module provides it, sharing the
exact Eq.-3 cost with the SA exchanger, so the two are directly comparable
— ``benchmarks/bench_ablation.py`` quantifies what the annealing actually
buys (escape from the quantized-ID plateaus).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..package import NetType, PackageDesign
from .cost import CostWeights
from .exchanger import ExchangeResult, FingerPadExchanger


class GreedyExchanger(FingerPadExchanger):
    """Hill-climb-only exchange: the polish phase applied from the start.

    Reuses :class:`FingerPadExchanger` with a degenerate one-move schedule,
    so results, bookkeeping and the returned :class:`ExchangeResult` are
    fully comparable with the SA runs.
    """

    def __init__(
        self,
        design: PackageDesign,
        weights: Optional[CostWeights] = None,
        net_type: Optional[NetType] = NetType.POWER,
        sweeps: int = 50,
        **kwargs,
    ) -> None:
        from .annealer import SAParams

        super().__init__(
            design,
            weights=weights,
            # one freezing-cold move: effectively "skip the SA"
            params=SAParams(
                initial_temp=1e-9,
                final_temp=0.9e-9,
                cooling=0.5,
                moves_per_temp=1,
            ),
            net_type=net_type,
            polish_passes=sweeps,
            **kwargs,
        )

    def run(self, assignments: Dict, seed: Optional[int] = None) -> ExchangeResult:
        # seed is irrelevant (no stochastic phase) but kept for API parity
        return super().run(assignments, seed=seed or 0)
