"""Finite-difference IR-drop solver for Eq. (1) of the paper.

Eq. (1) is the nodal current balance of the uniform power grid of [17]:

    sum over 4 neighbours of (V(x,y) - V(neighbour)) / R  =  -J0 * dx * dy

with power-pad nodes held at ``Vdd``.  This module assembles the sparse
linear system over the non-pad nodes and solves it directly with scipy's
sparse LU.  The result is the full IR-drop map, whose maximum is the
paper's reported metric ("we use [17] method to calculate the maximum value
of IR-drop").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from .grid import PowerGridConfig


@dataclass
class IRDropResult:
    """Solved IR-drop map of the core."""

    config: PowerGridConfig
    voltage: np.ndarray  # shape (G, G), volts; indexed [x, y]
    pad_nodes: List[Tuple[int, int]]

    @property
    def drop_map(self) -> np.ndarray:
        """IR-drop (Vdd - V) at every node, in volts."""
        return self.config.vdd - self.voltage

    @property
    def max_drop(self) -> float:
        """Maximum IR-drop in volts — the paper's headline metric."""
        return float(self.drop_map.max())

    @property
    def mean_drop(self) -> float:
        """Average IR-drop over the core, in volts."""
        return float(self.drop_map.mean())

    def worst_node(self) -> Tuple[int, int]:
        """Grid node suffering the maximum IR-drop."""
        flat_index = int(np.argmax(self.drop_map))
        return np.unravel_index(flat_index, self.voltage.shape)


class FDSolver:
    """Sparse direct solver for the power-grid equation.

    ``current_map`` (optional, shape ``(G, G)``) overrides the uniform
    per-node current draw of the compact model — real chips have hot blocks,
    and the Fig.-6 experiment exercises exactly that.
    """

    def __init__(self, config: PowerGridConfig, current_map=None) -> None:
        self.config = config
        if current_map is not None:
            current_map = config.checked_current_map(current_map)
        self.current_map = current_map

    def factorize(self, pad_nodes: Iterable[Tuple[int, int]]):
        """Factor the grid once for *pad_nodes*; re-solve injections cheaply.

        The shared :class:`~repro.kernels.irsolve.GridFactorization` of the
        process-wide memo, or, for a solver with a current map, a view whose
        ``solve()`` passes that map: solvers never read each other's map.
        """
        from ..kernels.irsolve import factorize_grid

        shared = factorize_grid(self.config, pad_nodes)
        if self.current_map is None:
            return shared
        return _MappedFactorization(shared, self.current_map)

    def _solve_object(self, pad_nodes: Iterable[Tuple[int, int]]) -> IRDropResult:
        """Reference object-path solve (Python-loop assembly + spsolve).

        The independent implementation the ``irsolve_parity`` fuzz oracle
        and the tests compare ``factorize(pad_nodes).solve()`` against.
        """
        config = self.config
        g = config.size
        pads = [divmod(node, g) for node in config.checked_pad_ids(pad_nodes)]
        pad_set = set(pads)
        unknown_index = {}
        for x in range(g):
            for y in range(g):
                if (x, y) not in pad_set:
                    unknown_index[(x, y)] = len(unknown_index)

        if not unknown_index:
            voltage = np.full((g, g), config.vdd)
            return IRDropResult(config=config, voltage=voltage, pad_nodes=pads)

        gx = 1.0 / config.r_sx
        gy = 1.0 / config.r_sy
        n = len(unknown_index)
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        if self.current_map is None:
            rhs = np.full(n, -config.j0)
        else:
            rhs = np.array(
                [-self.current_map[x, y] for (x, y) in unknown_index],
                dtype=float,
            )

        for (x, y), row_index in unknown_index.items():
            diagonal = 0.0
            for dx, dy, conductance in (
                (1, 0, gx),
                (-1, 0, gx),
                (0, 1, gy),
                (0, -1, gy),
            ):
                nx, ny = x + dx, y + dy
                if not (0 <= nx < g and 0 <= ny < g):
                    continue  # chip edge: no current leaves the die
                diagonal += conductance
                if (nx, ny) in pad_set:
                    rhs[row_index] += conductance * config.vdd
                else:
                    rows.append(row_index)
                    cols.append(unknown_index[(nx, ny)])
                    data.append(-conductance)
            rows.append(row_index)
            cols.append(row_index)
            data.append(diagonal)

        matrix = csr_matrix((data, (rows, cols)), shape=(n, n))
        solution = spsolve(matrix, rhs)

        voltage = np.full((g, g), config.vdd, dtype=float)
        for (x, y), row_index in unknown_index.items():
            voltage[x, y] = solution[row_index]
        return IRDropResult(config=config, voltage=voltage, pad_nodes=pads)

    def solve_fractions(self, fractions: Sequence[float]) -> IRDropResult:
        """Solve with pads given as perimeter fractions in ``[0, 1)``."""
        return self.factorize(self.config.ring_node_array(fractions)).solve()


@dataclass(frozen=True)
class _MappedFactorization:
    """A shared factorization solved under one solver's current map."""

    shared: object
    current_map: np.ndarray

    def solve(self, current_map=None) -> IRDropResult:
        return self.shared.solve(self.current_map if current_map is None else current_map)
