"""Power-grid model of the chip core (paper Fig. 7, ref [17]).

The compact physical IR-drop model of Shakeri-Meindl assumes the core's
power distribution network is a uniform G x G grid with sheet resistances
``Rsx`` / ``Rsy`` and a uniform current density ``J0`` drawn by every grid
cell; the power pads sit on the chip boundary and pin their nodes to
``Vdd``.  Eq. (1) of the paper is the finite-difference Kirchhoff balance of
one interior node of this grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import PowerModelError


@dataclass(frozen=True)
class PowerGridConfig:
    """Physical parameters of the core power grid.

    Attributes
    ----------
    size:
        Nodes per side of the square grid (G); the grid has ``G*G`` nodes.
    vdd:
        Supply voltage in volts.
    r_sx / r_sy:
        Per-edge resistance in ohms along x and y (``Rsx * dx/dy`` of Eq. 1;
        the grid is uniform so ``dx = dy``).
    j0:
        Current drawn by each grid cell in amperes (``J0 * dx * dy``).
    """

    size: int = 32
    vdd: float = 1.0
    r_sx: float = 1.0
    r_sy: float = 1.0
    j0: float = 1e-4

    def __post_init__(self) -> None:
        if self.size < 2:
            raise PowerModelError(f"power grid needs size >= 2, got {self.size}")
        if self.vdd <= 0:
            raise PowerModelError(f"vdd must be positive, got {self.vdd}")
        if self.r_sx <= 0 or self.r_sy <= 0:
            raise PowerModelError("sheet resistances must be positive")
        if self.j0 < 0:
            raise PowerModelError(f"current density must be >= 0, got {self.j0}")

    def checked_pad_ids(self, pad_nodes: Iterable[Tuple[int, int]]) -> Tuple[int, ...]:
        """Sorted distinct ids ``x * G + y`` of *pad_nodes*; none or off-grid raise."""
        g = self.size
        if not isinstance(pad_nodes, np.ndarray):
            pad_nodes = list(pad_nodes)
        nodes = np.asarray(pad_nodes, dtype=np.int64).reshape(-1, 2)
        if not len(nodes):
            raise PowerModelError("at least one power pad node is required")
        outside = ((nodes < 0) | (nodes >= g)).any(axis=1)
        if outside.any():
            x, y = nodes[outside][0]
            raise PowerModelError(f"pad node ({x},{y}) outside {g}x{g} grid")
        return tuple(np.unique(nodes[:, 0] * g + nodes[:, 1]).tolist())

    def checked_current_map(self, current_map) -> np.ndarray:
        """*current_map* as a ``(G, G)`` float array of non-negative draws."""
        current_map = np.asarray(current_map, dtype=float)
        expected = (self.size, self.size)
        if current_map.shape != expected:
            raise PowerModelError(
                f"current map shape {current_map.shape} != grid {expected}"
            )
        if (current_map < 0).any():
            raise PowerModelError("current map entries must be >= 0")
        return current_map

    def boundary_ring(self) -> List[Tuple[int, int]]:
        """Boundary nodes in ring order starting at the bottom-left corner.

        The walk is bottom edge left-to-right, right edge bottom-to-top, top
        edge right-to-left, left edge top-to-bottom — matching the package
        ring order of :meth:`repro.package.PackageDesign.ring_position`
        (bottom, right, top, left).
        """
        g = self.size
        ring: List[Tuple[int, int]] = []
        ring.extend((x, 0) for x in range(0, g - 1))
        ring.extend((g - 1, y) for y in range(0, g - 1))
        ring.extend((x, g - 1) for x in range(g - 1, 0, -1))
        ring.extend((0, y) for y in range(g - 1, 0, -1))
        return ring

    def ring_node_array(self, fractions: Sequence[float]) -> np.ndarray:
        """``(N, 2)`` boundary node of every perimeter fraction in ``[0, 1)``."""
        fractions = np.asarray(fractions, dtype=float)
        outside = ~((0.0 <= fractions) & (fractions < 1.0 + 1e-12))
        if outside.any():
            fraction = float(fractions[outside][0])
            raise PowerModelError(f"ring fraction {fraction} outside [0, 1)")
        ring = _ring_array(self.size)
        index = (fractions % 1.0 * len(ring)).astype(np.int64)
        return ring[np.minimum(index, len(ring) - 1)]

    def ring_nodes(self, fractions: Sequence[float]) -> List[Tuple[int, int]]:
        """:meth:`ring_node_array` as ``(x, y)`` tuples, in order."""
        return [tuple(node) for node in self.ring_node_array(fractions).tolist()]

    def ring_node(self, fraction: float) -> Tuple[int, int]:
        """Boundary node at perimeter *fraction* in ``[0, 1)``."""
        return self.ring_nodes([fraction])[0]


@lru_cache(maxsize=64)
def _ring_array(size: int) -> np.ndarray:
    """:meth:`PowerGridConfig.boundary_ring` of a size-*size* grid as an array."""
    return np.array(PowerGridConfig(size=size).boundary_ring(), dtype=np.int64)
