"""Array-backed pre-route congestion estimation (ROADMAP item 1, stage b).

``repro.routing.density`` walks Python objects: for every watched line it
re-collects the passing nets, sorts their slots and splits them at the via
slots — O(rows * n log n) with large constants.  This kernel computes the
identical run/interval structure with three vectorized passes over flat
int arrays — the slot permutation plus the ball rows and via order of the
quadrant's cached :class:`~repro.package.QuadrantTables` — through the
``searchsorted`` + ``bincount`` core of ``kernels.state.row_run_counts``,
which the exchange kernel shares.

Values are *identical* (they are integer counts), which the
``density_parity`` fuzz oracle and ``tests/test_kernels.py`` assert run for
run against :func:`repro.routing.density.density_map`.
"""

from __future__ import annotations

from ..package import quadrant_tables
from .state import row_run_counts

__all__ = ["max_density_of_order"]


def max_density_of_order(assignment) -> int:
    """Maximum run density of one quadrant's order (paper Table 2's metric).

    Mirrors :func:`repro.routing.density.run_partition` on every line
    ``2 .. row_count``: one leftmost run, ``m - 1`` interior runs (one
    interval each) and the rightmost run with two intervals (the free via
    candidate splits it); a run's density is ``ceil(wires / intervals)``.
    Reads the :class:`~repro.assign.Assignment`'s ``net_slot``; a raw
    net-id order converts through ``Assignment(quadrant, order)``.
    """
    quadrant = assignment.quadrant
    tables = quadrant_tables(quadrant)
    net_slot = assignment.net_slot
    peak = 0
    for row in range(2, quadrant.row_count + 1):
        counts = row_run_counts(net_slot, tables.rows, tables.row_nets[row - 1], row)
        counts[-1] = -(-counts[-1] // 2)
        peak = max(peak, int(counts.max()))
    return peak
