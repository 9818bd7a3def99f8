"""Flat-array mirror of a design + assignment (the kernel's state).

The object model (``PackageDesign`` / ``Assignment``) is convenient but
dict-keyed: every hot-loop query pays a hash lookup and an attribute chase.
This module flattens one design side into contiguous NumPy int arrays —
net ids, ball rows, tiers, supply classes, slot<->net permutations and the
static section bookkeeping of Eq. 2 — so the exchange kernel can answer
every per-move question with O(1) array indexing.  Static arrays come from
the quadrant's cached :class:`~repro.package.QuadrantTables`.

Net *indices* (0-based positions in the quadrant's netlist) replace net ids
everywhere inside the kernel; ``tables.net_ids`` maps back out at the boundary.
Slots are 0-based internally (the object model is 1-based).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..geometry import Side
from ..package import NetType, Quadrant, QuadrantTables, quadrant_tables


@dataclass(frozen=True)
class WatchedRow:
    """Static section structure of one watched horizontal line (Eq. 2).

    ``via_nets`` are the net indices of the row's own balls in ball order
    (monotonic legality keeps their slots sorted), ``run_base`` is this
    row's offset into the kernel's flat run-delta array, and
    ``baseline_counts`` records the wire count of every run right after the
    congestion-driven assignment — the ``I_c_ini`` of Eq. 2.
    """

    row: int
    via_nets: np.ndarray
    run_base: int
    baseline_counts: np.ndarray

    @property
    def run_count(self) -> int:
        return len(self.via_nets) + 1


@dataclass
class SideArrays:
    """One quadrant of the design, flattened."""

    side: Side
    quadrant: Quadrant
    #: the quadrant's static arrays (net ids, via indices, ...; read-only)
    tables: QuadrantTables
    #: ball row by net index (1 = outermost; ``tables.rows``)
    rows: np.ndarray
    #: die tier by net index (stacking ICs)
    tiers: np.ndarray
    #: IR network class by net index (-1 = untracked)
    supply_class: np.ndarray
    #: run-delta offset of the net's own row, -1 when the row is unwatched
    net_run_base: np.ndarray
    #: global ring index of this side's slot 0 (slot s maps to offset + s + 1)
    ring_offset: int
    #: net index by 0-based slot (the assignment, mutable)
    slot_net: np.ndarray
    #: 0-based slot by net index (inverse permutation, mutable)
    net_slot: np.ndarray
    watched: List[WatchedRow] = field(default_factory=list)

    @property
    def slot_count(self) -> int:
        return len(self.slot_net)


def watched_rows_of(quadrant: Quadrant, all_rows: bool) -> List[int]:
    """The horizontal lines the density tracker watches (see sections.py)."""
    if all_rows:
        return list(range(2, quadrant.row_count + 1)) or [quadrant.row_count]
    return [quadrant.row_count]


def build_side_arrays(
    design,
    side: Side,
    assignment,
    net_type,
    split_networks: bool,
    all_rows: bool,
    run_base: int,
) -> SideArrays:
    """Flatten one side of *design* under its baseline *assignment*.

    ``run_base`` is the first free index of the kernel's flat run-delta
    array; the side claims one contiguous block per watched row.
    """
    quadrant = design.quadrants[side]
    tables = quadrant_tables(quadrant)
    count = quadrant.net_count
    tiers = np.fromiter(
        (net.tier for net in quadrant.netlist), dtype=np.int64, count=count
    )
    # IR network class, mirroring CachedExchangeCost's fraction collection:
    # with split_networks POWER is class 0 and GROUND class 1; otherwise the
    # requested network (every supply net for net_type=None) is class 0.
    supply_class = np.full(count, -1, dtype=np.int64)
    if split_networks:
        supply_class[tables.type_nets[NetType.POWER]] = 0
        supply_class[tables.type_nets[NetType.GROUND]] = 1
    else:
        supply_class[tables.type_nets[net_type]] = 0

    slot_net = tables.indices(assignment.order)
    net_slot = np.empty(count, dtype=np.int64)
    net_slot[slot_net] = np.arange(count, dtype=np.int64)

    # ring offset: nets of earlier sides (design ring order) come first
    offset = 0
    for ring_side in design.sides:
        if ring_side is side:
            break
        offset += design.quadrants[ring_side].net_count

    net_run_base = np.full(count, -1, dtype=np.int64)
    watched: List[WatchedRow] = []
    next_base = run_base
    rows = tables.rows
    for row in watched_rows_of(quadrant, all_rows):
        via_nets = tables.row_nets[row - 1]
        counts = row_run_counts(net_slot, rows, via_nets, row)
        watched.append(
            WatchedRow(
                row=row,
                via_nets=via_nets,
                run_base=next_base,
                baseline_counts=counts,
            )
        )
        net_run_base[rows == row] = next_base
        next_base += len(via_nets) + 1

    return SideArrays(
        side=side,
        quadrant=quadrant,
        tables=tables,
        rows=rows,
        tiers=tiers,
        supply_class=supply_class,
        net_run_base=net_run_base,
        ring_offset=offset,
        slot_net=slot_net,
        net_slot=net_slot,
        watched=watched,
    )


def row_run_counts(
    net_slot: np.ndarray,
    rows: np.ndarray,
    via_nets: np.ndarray,
    row: int,
) -> np.ndarray:
    """Wire count of every run on line *row* (vectorized ``run_partition``).

    The row's own nets terminate at vias and split the slot sequence into
    ``m + 1`` runs; every net whose ball lies in a lower row crosses the
    line inside the run its finger slot falls into.
    """
    via_slots = np.sort(net_slot[via_nets])
    passing_slots = net_slot[rows < row]
    run_of = np.searchsorted(via_slots, passing_slots, side="left")
    return np.bincount(run_of, minlength=len(via_nets) + 1).astype(np.int64)
