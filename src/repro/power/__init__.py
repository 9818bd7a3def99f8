"""Core power-integrity models: FD IR-drop solver and compact proxy."""

from .compact import (
    compact_ir_cost,
    demand_weights,
    normalized_compact_cost,
    pad_gaps,
    weighted_compact_cost,
    worst_gap,
)
from .fdsolver import FDSolver, IRDropResult
from .flipchip import PackagingComparison, area_pad_nodes, compare_packaging
from .floorplan import Floorplan, Module, example_soc_floorplan
from .grid import PowerGridConfig
from .irdrop import IRDropAnalyzer
from .pads import pad_nodes_for_grid, supply_pad_fractions
from .spice import export_spice

__all__ = [
    "FDSolver",
    "Floorplan",
    "Module",
    "PackagingComparison",
    "area_pad_nodes",
    "compare_packaging",
    "example_soc_floorplan",
    "export_spice",
    "IRDropAnalyzer",
    "IRDropResult",
    "PowerGridConfig",
    "compact_ir_cost",
    "demand_weights",
    "normalized_compact_cost",
    "pad_gaps",
    "pad_nodes_for_grid",
    "supply_pad_fractions",
    "weighted_compact_cost",
    "worst_gap",
]
