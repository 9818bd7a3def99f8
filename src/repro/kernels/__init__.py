"""Array-backed pipeline kernels (``repro.kernels``).

The production path of every pipeline stage: flat NumPy state plus
vectorized inner loops.  The object model (``Assigner.assign``,
``routing.density_map``, ``ExchangeCost``/``CachedExchangeCost`` and
``FDSolver._solve_object``) is the reference that tests, the fuzz
oracles and ``--verify`` compare these kernels against; they are proven
move-for-move (exchange), order-identical (assignment) or value-identical
(density, IR solve) to it.  Callers never choose between the two: stock
IFA/DFA assignment and ``max_density`` always run the kernels, and the
exchange runs :class:`ArrayExchangeKernel` unless a custom ``ir_proxy``
is given — the one input the kernel cannot express, which selects the
object loop.

Stage kernels:

* :mod:`.exchange` — SA finger/pad exchange with O(1) Eq.-3 move deltas;
* :mod:`.assign` — IFA (linked-list O(n)) and DFA (closed-form rank
  recurrence) finger orders;
* :mod:`.density` — run/interval congestion accumulation on int arrays;
* :mod:`.irsolve` — factor-once / re-solve-many FD power-grid solver.
"""

from __future__ import annotations

from .assign import dfa_order, ifa_order
from .density import max_density_of_order
from .exchange import WL_RESYNC_INTERVAL, ArrayExchangeKernel
from .irsolve import GridFactorization, factorize_grid
from .state import SideArrays, WatchedRow, build_side_arrays, row_run_counts

__all__ = [
    "ArrayExchangeKernel",
    "WL_RESYNC_INTERVAL",
    "SideArrays",
    "WatchedRow",
    "build_side_arrays",
    "row_run_counts",
    "dfa_order",
    "ifa_order",
    "max_density_of_order",
    "GridFactorization",
    "factorize_grid",
]
