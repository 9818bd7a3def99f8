"""Package model: nets, bump balls, fingers, quadrants, designs, stacking."""

from .bump import BumpArray, BumpBall
from .design import PackageDesign, PackageTechnology
from .finger import FingerRow
from .net import Net, NetList, NetType
from .quadrant import Quadrant, quadrant_from_rows
from .stacking import StackingConfig, assign_tiers_round_robin, bonding_wire_crossings
from .tables import QuadrantTables, quadrant_tables
from .validate import DRCReport, DRCViolation, check_design

__all__ = [
    "BumpArray",
    "DRCReport",
    "DRCViolation",
    "check_design",
    "BumpBall",
    "FingerRow",
    "Net",
    "NetList",
    "NetType",
    "PackageDesign",
    "PackageTechnology",
    "Quadrant",
    "QuadrantTables",
    "StackingConfig",
    "bonding_wire_crossings",
    "assign_tiers_round_robin",
    "quadrant_from_rows",
    "quadrant_tables",
]
