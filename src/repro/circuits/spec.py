"""Test-circuit specifications (paper Table 1).

A :class:`CircuitSpec` captures everything Table 1 publishes about a test
circuit — finger/pad count and the package's physical dimensions — plus the
knobs the paper states in prose: four bump rows per package side and the
number of die tiers for the stacking experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import CircuitSpecError


@dataclass(frozen=True)
class CircuitSpec:
    """One row of Table 1 (plus generation knobs).

    Attributes
    ----------
    name:
        Circuit label ("circuit1" ... "circuit5").
    finger_count:
        Total finger/pad count across the whole package (Table 1 column 2).
    bump_ball_space:
        Minimal space between two continual bump balls, micrometres.
    finger_width / finger_height / finger_space:
        Finger dimensions and spacing, micrometres.
    rows_per_quadrant:
        Horizontal bump lines per package side; the paper sets 4.
    quadrant_count:
        Sides of the package to populate (the paper always uses 4; small
        didactic designs may use 1).
    supply_fraction:
        Fraction of nets that are supply (power + ground) pads.
    tier_count:
        Die tiers (``psi``); 1 = 2-D IC, 4 = the paper's stacking runs.
    """

    name: str
    finger_count: int
    bump_ball_space: float = 1.2
    finger_width: float = 0.1
    finger_height: float = 0.2
    finger_space: float = 0.12
    rows_per_quadrant: int = 4
    quadrant_count: int = 4
    supply_fraction: float = 0.25
    tier_count: int = 1

    def __post_init__(self) -> None:
        if self.finger_count < self.quadrant_count:
            raise CircuitSpecError(
                f"{self.name}: need at least one finger per quadrant"
            )
        if not (1 <= self.quadrant_count <= 4):
            raise CircuitSpecError(
                f"{self.name}: quadrant count must be 1..4, got {self.quadrant_count}"
            )
        if self.rows_per_quadrant < 1:
            raise CircuitSpecError(
                f"{self.name}: rows_per_quadrant must be >= 1"
            )
        if not (0.0 <= self.supply_fraction <= 1.0):
            raise CircuitSpecError(
                f"{self.name}: supply fraction must be in [0, 1]"
            )
        if self.tier_count < 1:
            raise CircuitSpecError(f"{self.name}: tier count must be >= 1")
        if min(self.bump_ball_space, self.finger_width, self.finger_height) <= 0:
            raise CircuitSpecError(f"{self.name}: dimensions must be positive")
        if self.finger_space < 0:
            raise CircuitSpecError(f"{self.name}: finger space must be >= 0")
        minimum = self.rows_per_quadrant * self.quadrant_count
        if self.finger_count < minimum:
            raise CircuitSpecError(
                f"{self.name}: {self.finger_count} fingers cannot fill "
                f"{self.rows_per_quadrant} rows x {self.quadrant_count} quadrants"
            )

    def with_tiers(self, tier_count: int) -> "CircuitSpec":
        """The same circuit as a stacking IC with ``tier_count`` tiers."""
        return replace(self, tier_count=tier_count)
