"""Whole-package design: four quadrants plus physical/stack parameters.

A :class:`PackageDesign` is the top-level object a user builds (usually via
:mod:`repro.circuits`) and feeds to the co-design flow.  Each quadrant is an
independent sub-problem; the design also carries the Table-1 physical
parameters and the stacking configuration, and knows how to map finger slots
to positions on the chip boundary ring (needed by the IR-drop model, since
the paper assumes finger order == pad order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..errors import PackageModelError
from ..geometry import Side
from .quadrant import Quadrant
from .stacking import StackingConfig


@dataclass(frozen=True)
class PackageTechnology:
    """Physical package parameters (the columns of Table 1)."""

    bump_ball_space: float = 1.2
    bump_ball_diameter: float = 0.2
    via_diameter: float = 0.1
    finger_width: float = 0.1
    finger_height: float = 0.2
    finger_space: float = 0.12

    def __post_init__(self) -> None:
        values = (
            self.bump_ball_space,
            self.bump_ball_diameter,
            self.via_diameter,
            self.finger_width,
            self.finger_height,
        )
        if any(value <= 0 for value in values):
            raise PackageModelError("package technology dimensions must be positive")
        if self.finger_space < 0:
            raise PackageModelError("finger space must be non-negative")

    @property
    def bump_pitch(self) -> float:
        """Centre-to-centre bump-ball distance."""
        return self.bump_ball_space + self.bump_ball_diameter

    @property
    def finger_pitch(self) -> float:
        """Centre-to-centre finger distance."""
        return self.finger_width + self.finger_space


class PackageDesign:
    """A complete finger/pad planning problem instance."""

    def __init__(
        self,
        quadrants: Dict[Side, Quadrant],
        technology: PackageTechnology = PackageTechnology(),
        stacking: StackingConfig = StackingConfig(),
        name: str = "design",
    ) -> None:
        if not quadrants:
            raise PackageModelError("a design needs at least one quadrant")
        self.quadrants = dict(quadrants)
        self.technology = technology
        self.stacking = stacking
        self.name = name
        self._validate_tiers()

    def _validate_tiers(self) -> None:
        psi = self.stacking.tier_count
        for quadrant in self.quadrants.values():
            tiers = quadrant.netlist.tiers
            outside = np.flatnonzero((tiers < 1) | (tiers > psi))
            if len(outside):
                k = outside[0]
                raise PackageModelError(
                    f"net {quadrant.netlist.names[k]} on tier {tiers[k]}, "
                    f"but the stack has {psi} tier(s)"
                )

    # -- iteration helpers ---------------------------------------------------

    @property
    def sides(self) -> List[Side]:
        """Sides present in the design, in ring order (bottom, right, top, left)."""
        order = [Side.BOTTOM, Side.RIGHT, Side.TOP, Side.LEFT]
        return [side for side in order if side in self.quadrants]

    def __iter__(self) -> Iterator[Tuple[Side, Quadrant]]:
        for side in self.sides:
            yield side, self.quadrants[side]

    @property
    def total_net_count(self) -> int:
        """Total finger/pad count of the design (Table 1, column 2)."""
        return sum(quadrant.net_count for __, quadrant in self)

    # -- chip boundary ring ---------------------------------------------------

    def ring_slot_count(self) -> int:
        """Number of pad positions around the chip boundary ring."""
        return self.total_net_count

    def ring_position(self, side: Side, slot: int) -> float:
        """Position of a finger slot on the boundary ring, in ``[0, 1)``.

        The ring walks bottom -> right -> top -> left, so finger slot ``a`` of
        a side maps to a fraction of the full chip perimeter.  Because finger
        order equals pad order, this is also the chip pad position the
        IR-drop model uses.
        """
        if side not in self.quadrants:
            raise PackageModelError(f"design has no {side.value} quadrant")
        offset = 0
        for ring_side in self.sides:
            quadrant = self.quadrants[ring_side]
            if ring_side is side:
                if not (1 <= slot <= quadrant.net_count):
                    raise PackageModelError(
                        f"slot {slot} outside 1..{quadrant.net_count} "
                        f"on side {side.value}"
                    )
                return (offset + slot - 0.5) / self.ring_slot_count()
            offset += quadrant.net_count
        raise PackageModelError(f"design has no {side.value} quadrant")

    def describe(self) -> str:
        """Multi-line human-readable summary of the design."""
        lines = [
            f"PackageDesign '{self.name}': {self.total_net_count} finger/pads, "
            f"psi={self.stacking.tier_count}"
        ]
        for side, quadrant in self:
            lines.append(f"  {quadrant.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackageDesign(name={self.name!r}, nets={self.total_net_count}, "
            f"sides={[side.value for side in self.sides]})"
        )
