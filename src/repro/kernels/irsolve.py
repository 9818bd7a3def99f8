"""Factor-once / re-solve-many FD IR-drop kernel (ROADMAP item 1, stage c).

The grid topology never changes between SA candidate evaluations — only the
pad injection points and (for Fig.-6 style experiments) the current map do.
``FDSolver.solve`` nevertheless re-assembled the sparse system with Python
loops and re-ran a full sparse LU on every call.  This kernel splits that
work honestly:

``factorize_grid(config, pad_nodes)``
    Vectorized assembly of the Dirichlet-reduced Laplacian (one pass of
    ``np`` index arithmetic per neighbour direction instead of a Python
    loop over ``G*G`` nodes) followed by a single factorization.  The
    boundary (pad-at-Vdd) contribution to the right-hand side only depends
    on the pad set, so it is precomputed here too.

``GridFactorization.solve(current_map=None)``
    A cheap pair of triangular backsolves per injection vector — the
    re-solve-many half.  Values match a fresh ``FDSolver`` solve within
    1e-9 (``irsolve_parity`` oracle, hypothesis property in
    ``tests/test_power_grid.py``).

The factorization is ``scipy.sparse.linalg.splu``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from ..power.grid import PowerGridConfig

__all__ = ["GridFactorization", "factorize_grid"]


class GridFactorization:
    """Prefactorized Dirichlet-reduced power grid for one pad set.

    Reusable across every injection vector: :meth:`solve` performs only the
    right-hand-side build and the triangular backsolves.
    """

    def __init__(
        self, config: PowerGridConfig, pad_nodes: Iterable[Tuple[int, int]]
    ) -> None:
        from ..power.fdsolver import IRDropResult  # circular at module scope

        self._result_type = IRDropResult
        self.config = config
        #: Injection map used when ``solve()`` gets none; ``FDSolver.factorize``
        #: points this at the owning solver's ``current_map``.
        self.default_current_map: Optional[np.ndarray] = None
        self.pad_nodes = config.checked_pads(pad_nodes)
        g = config.size
        pad_flat = np.zeros(g * g, dtype=bool)
        for x, y in self.pad_nodes:
            pad_flat[x * g + y] = True
        unknown_ids = np.flatnonzero(~pad_flat)
        self._unknown_ids = unknown_ids
        n = len(unknown_ids)
        self.unknown_count = n
        if n == 0:
            self._lu = None
            self._dirichlet = np.zeros(0)
            return

        index_of = np.full(g * g, -1, dtype=np.int64)
        index_of[unknown_ids] = np.arange(n, dtype=np.int64)
        ux, uy = unknown_ids // g, unknown_ids % g
        gx, gy = 1.0 / config.r_sx, 1.0 / config.r_sy

        diagonal = np.zeros(n)
        dirichlet = np.zeros(n)
        row_parts: List[np.ndarray] = []
        col_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        all_rows = np.arange(n, dtype=np.int64)
        for dx, dy, conductance in (
            (1, 0, gx),
            (-1, 0, gx),
            (0, 1, gy),
            (0, -1, gy),
        ):
            nx, ny = ux + dx, uy + dy
            inside = (0 <= nx) & (nx < g) & (0 <= ny) & (ny < g)
            neighbour = nx[inside] * g + ny[inside]
            rows = all_rows[inside]
            diagonal[rows] += conductance
            is_pad = pad_flat[neighbour]
            dirichlet[rows[is_pad]] += conductance * config.vdd
            free_rows = rows[~is_pad]
            row_parts.append(free_rows)
            col_parts.append(index_of[neighbour[~is_pad]])
            val_parts.append(np.full(len(free_rows), -conductance))
        rows = np.concatenate(row_parts)
        cols = np.concatenate(col_parts)
        vals = np.concatenate(val_parts)
        self._dirichlet = dirichlet

        matrix = csc_matrix(
            (
                np.concatenate([vals, diagonal]),
                (
                    np.concatenate([rows, all_rows]),
                    np.concatenate([cols, all_rows]),
                ),
            ),
            shape=(n, n),
        )
        self._lu = splu(matrix)

    def _rhs(self, current_map: Optional[np.ndarray]) -> np.ndarray:
        config = self.config
        if current_map is None:
            rhs = np.full(self.unknown_count, -config.j0)
        else:
            current_map = config.checked_current_map(current_map)
            rhs = -current_map.reshape(-1)[self._unknown_ids]
        return rhs + self._dirichlet

    def solve(self, current_map: Optional[np.ndarray] = None):
        """Re-solve for one injection vector — backsolves only, no refactor."""
        if current_map is None:
            current_map = self.default_current_map
        config = self.config
        g = config.size
        voltage = np.full((g, g), config.vdd, dtype=float)
        if self.unknown_count:
            solution = self._lu.solve(self._rhs(current_map))
            voltage.reshape(-1)[self._unknown_ids] = solution
        return self._result_type(
            config=config, voltage=voltage, pad_nodes=self.pad_nodes
        )


def factorize_grid(
    config: PowerGridConfig, pad_nodes: Iterable[Tuple[int, int]]
) -> GridFactorization:
    """Assemble + factor the grid once for *pad_nodes*; re-solve cheaply."""
    return GridFactorization(config, pad_nodes)
