"""Mapping finger/pad assignments onto the chip boundary ring.

The paper assumes the finger order and the chip pad order are identical
(section 2.1), so a net's finger slot directly determines where its chip pad
sits on the die periphery.  This module extracts the perimeter positions of
the supply pads from a design plus its per-quadrant assignments — the input
both IR-drop models consume — one array expression per side over the
quadrant's cached :class:`~repro.package.QuadrantTables`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..errors import PowerModelError
from ..package import NetType, PackageDesign, quadrant_tables


def supply_pad_fractions(
    design: PackageDesign,
    assignments: Dict,
    net_type: Optional[NetType] = NetType.POWER,
) -> List[float]:
    """:func:`supply_pad_fraction_array` as a list."""
    return supply_pad_fraction_array(design, assignments, net_type).tolist()


def supply_pad_fraction_array(
    design: PackageDesign,
    assignments: Dict,
    net_type: Optional[NetType] = NetType.POWER,
) -> np.ndarray:
    """Perimeter fractions (in ``[0, 1)``) of the supply pads.

    Parameters
    ----------
    design:
        The package design (provides the ring geometry).
    assignments:
        ``{side: Assignment}`` as produced by an assigner.
    net_type:
        Which supply network to collect: ``NetType.POWER`` (default, the VDD
        grid the paper analyzes), ``NetType.GROUND`` for the VSS grid, or
        ``None`` for both networks together.
    """
    ring_slots = design.ring_slot_count()
    parts = []
    offset = 0
    for side, quadrant in design:
        if side not in assignments:
            raise PowerModelError(f"no assignment supplied for side {side.value}")
        tables = quadrant_tables(quadrant)
        supply = tables.type_nets[net_type]
        if len(supply):
            net_slot = tables.net_slots(assignments[side].order)
            # PackageDesign.ring_position's (offset + slot - 0.5) / N, 1-based
            parts.append((offset + net_slot[supply] + 0.5) / ring_slots)
        offset += quadrant.net_count
    if not parts:
        raise PowerModelError(
            "design has no supply pads of the requested type; "
            "mark some nets as POWER/GROUND"
        )
    return np.concatenate(parts)


def pad_nodes_for_grid(
    design: PackageDesign,
    assignments: Dict,
    grid_config,
    net_type: Optional[NetType] = NetType.POWER,
) -> List[tuple]:
    """Grid boundary node of every supply pad, in pad order."""
    fractions = supply_pad_fraction_array(design, assignments, net_type)
    return grid_config.ring_nodes(fractions)
