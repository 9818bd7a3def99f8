"""Finger/pad exchange: SA engine, Eq.-3 cost, ID tracking and bonding metric."""

from .annealer import SAParams, SAStats, SimulatedAnnealer, advance
from .checkpoint import SACheckpointer, SimulatedCrash
from .bonding import (
    bonding_improvement,
    group_masks,
    omega,
    omega_of_assignment,
    omega_of_design,
)
from .cost import CostWeights, ExchangeCost
from .exchanger import ExchangeResult, FingerPadExchanger
from .greedy import GreedyExchanger
from .moves import MoveGenerator, SwapMove
from .sections import DesignSectionTracker, SectionTracker, interval_numbers

__all__ = [
    "CostWeights",
    "DesignSectionTracker",
    "ExchangeCost",
    "ExchangeResult",
    "FingerPadExchanger",
    "GreedyExchanger",
    "MoveGenerator",
    "SACheckpointer",
    "SAParams",
    "SAStats",
    "SectionTracker",
    "SimulatedAnnealer",
    "SimulatedCrash",
    "SwapMove",
    "advance",
    "bonding_improvement",
    "group_masks",
    "interval_numbers",
    "omega",
    "omega_of_assignment",
    "omega_of_design",
]
