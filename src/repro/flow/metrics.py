"""Design-level metric extraction shared by the flow, reports and benches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..exchange import omega_of_design
from ..obs.spans import span
from ..package import NetType, PackageDesign
from ..power import IRDropAnalyzer, PowerGridConfig
from ..routing import max_density_of_design, total_flyline_length_of_design


@dataclass(frozen=True)
class DesignMetrics:
    """The quantities the paper's tables report for one assignment."""

    max_density: int
    wirelength: float
    max_ir_drop: Optional[float] = None
    omega: Optional[int] = None

    def as_dict(self) -> Dict:
        return {
            "max_density": self.max_density,
            "wirelength": self.wirelength,
            "max_ir_drop": self.max_ir_drop,
            "omega": self.omega,
        }


def measure(
    design: PackageDesign,
    assignments: Dict,
    grid_config: Optional[PowerGridConfig] = None,
    with_ir: bool = True,
    net_type: Optional[NetType] = NetType.POWER,
) -> DesignMetrics:
    """Measure one assignment of a design.

    ``with_ir=False`` skips the (comparatively expensive) power-grid solve —
    Table 2 only needs density and wirelength.  Density, legality,
    wirelength and the supply-pad mapping read one cached per-quadrant
    table (:class:`~repro.package.QuadrantTables`); the IR solve takes the
    factor-once path.  The stages run in the ``measure.density``,
    ``measure.wirelength``, ``measure.ir`` and (stacking ICs only)
    ``measure.omega`` spans.
    """
    with span("measure.density"):
        density = max_density_of_design(assignments)
    with span("measure.wirelength"):
        wirelength = total_flyline_length_of_design(assignments)
    ir_drop = None
    if with_ir:
        with span("measure.ir"):
            analyzer = IRDropAnalyzer(
                design, grid_config=grid_config, net_type=net_type
            )
            ir_drop = analyzer.max_drop(assignments)
    psi = design.stacking.tier_count
    omega = None
    if psi > 1:
        with span("measure.omega"):
            omega = omega_of_design(assignments, psi)
    return DesignMetrics(
        max_density=density,
        wirelength=wirelength,
        max_ir_drop=ir_drop,
        omega=omega,
    )


def improvement_ratio(before: float, after: float) -> float:
    """Relative improvement ``(before - after) / before``; 0 when before <= 0."""
    if before <= 0:
        return 0.0
    return (before - after) / before
