"""Factor-once / re-solve-many FD IR-drop kernel.

The grid topology never changes between SA candidate evaluations — only the
pad injection points and (for Fig.-6 style experiments) the current map do,
so the work splits in two:

``factorize_grid(config, pad_nodes)``
    Vectorized assembly of the Dirichlet-reduced Laplacian (``np`` index
    arithmetic per neighbour direction) and one ``scipy.sparse.linalg.splu``
    factorization; the boundary (pad-at-Vdd) right-hand side is precomputed
    too.  One process-wide memo (:func:`shared_factorization`) holds it per
    grid and distinct pad set.

``GridFactorization.solve(current_map=None)``
    A pair of triangular backsolves per injection vector.  Values match the
    ``FDSolver._solve_object`` reference within 1e-9 (``irsolve_parity``
    oracle, a Hypothesis property in ``tests/test_staged.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from ..power.fdsolver import IRDropResult
from ..power.grid import PowerGridConfig

__all__ = ["GridFactorization", "factorize_grid", "shared_factorization"]

#: Entries of the process-wide memo: the assign/evaluate sweep needs two (G=32
#: and G=96); the bound caps what a long-lived process such as the daemon holds.
FACTORIZATIONS_KEPT = 4


class GridFactorization:
    """Prefactorized Dirichlet-reduced power grid for one pad set.

    Reusable across every injection vector: :meth:`solve` performs only the
    right-hand-side build and the triangular backsolves.  It holds no
    current map, so solvers with different maps can share it.
    """

    def __init__(self, config: PowerGridConfig, pad_ids: Tuple[int, ...]) -> None:
        self.config = config
        g = config.size
        self.pad_nodes = [divmod(node, g) for node in pad_ids]
        pad_flat = np.zeros(g * g, dtype=bool)
        pad_flat[list(pad_ids)] = True
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
        for dx, dy, conductance in ((1, 0, gx), (-1, 0, gx), (0, 1, gy), (0, -1, gy)):
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
        """Re-solve for one injection vector (uniform ``j0`` when None)."""
        config = self.config
        g = config.size
        voltage = np.full((g, g), config.vdd, dtype=float)
        if self.unknown_count:
            solution = self._lu.solve(self._rhs(current_map))
            voltage.reshape(-1)[self._unknown_ids] = solution
        return IRDropResult(
            config=config, voltage=voltage, pad_nodes=list(self.pad_nodes)
        )


def factorize_grid(config: PowerGridConfig, pad_nodes: Iterable) -> GridFactorization:
    """The shared factorization of *config* with pads at *pad_nodes*."""
    return shared_factorization(config, config.checked_pad_ids(pad_nodes))


@lru_cache(maxsize=FACTORIZATIONS_KEPT)
def shared_factorization(config, pad_ids: Tuple[int, ...]) -> GridFactorization:
    """Process-wide memo of factorizations, keyed by grid and checked pad ids.

    An invalid pad set raises in ``checked_pad_ids`` and is never cached;
    ``lru_cache`` is thread-safe, which the serve daemon's thread needs.
    """
    return GridFactorization(config, pad_ids)
