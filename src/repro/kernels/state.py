"""Flat mirror of a design + assignment (the kernel's state).

The object model (``PackageDesign`` / ``Assignment``) is convenient but
dict-keyed: every hot-loop query pays a hash lookup and an attribute chase.
This module flattens one design side into index-addressed lookups — ball
rows, tiers, supply classes, slot<->net permutations and the static section
bookkeeping of Eq. 2 — so the exchange kernel can answer every per-move
question with O(1) indexing.

Everything a move reads or writes is a Python ``list`` of ``int``, the
only copy of that state: a list read is a pointer load, an int64 array
read boxes a NumPy scalar (~8x slower).  The O(n) vectorized passes
convert the slice they need with :func:`int_array` and read static arrays:
the quadrant's cached :class:`~repro.package.QuadrantTables` and the
side's own supply classes and run offsets.

Net *indices* (0-based positions in the quadrant's netlist) replace net ids
everywhere inside the kernel; ``tables.net_ids`` maps back out at the boundary.
Slots are 0-based internally (the object model is 1-based).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """One quadrant of the design, flattened (lists are per-move state)."""

    side: Side
    quadrant: Quadrant
    #: the quadrant's static arrays (net ids, via indices, ...; read-only)
    tables: QuadrantTables
    #: ball row by net index (1 = outermost; ``tables.rows`` as a list)
    rows: List[int]
    #: die tier by net index (stacking ICs)
    tiers: List[int]
    #: IR network class by net index (-1 = untracked)
    supply_class: List[int]
    #: run-delta offset of the net's own row, -1 when the row is unwatched
    net_run_base: List[int]
    #: position of each net within its own ball row (``tables.via_index``)
    via_index: List[int]
    #: global ring index of this side's slot 0 (slot s maps to offset + s + 1)
    ring_offset: int
    #: number of finger slots (= nets) on the side
    slot_count: int
    #: net index by 0-based slot (the assignment, mutable)
    slot_net: List[int]
    #: 0-based slot by net index (inverse permutation, mutable)
    net_slot: List[int]
    #: ``supply_class`` and ``net_run_base`` as int64 arrays for the O(n)
    #: passes (static, like the lists, so the two never disagree)
    supply_class_array: np.ndarray
    net_run_base_array: np.ndarray
    watched: List[WatchedRow]


def int_array(values) -> np.ndarray:
    """An int64 array of an int sequence (the fast path for a list)."""
    return np.fromiter(values, dtype=np.int64, count=len(values))


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
    ints: List[int],
) -> SideArrays:
    """Flatten one side of *design* under its baseline *assignment*.

    ``run_base`` is the first free index of the kernel's flat run-delta
    array; the side claims one contiguous block per watched row.  *ints*
    (``list(range(m))``, ``m`` at least the side's net count) supplies the
    int objects of the permutations and via indices, so that every side
    shares one object per value.
    """
    quadrant = design.quadrants[side]
    tables = quadrant_tables(quadrant)
    count = quadrant.net_count
    # IR network class, mirroring ExchangeCost's fraction collection:
    # with split_networks POWER is class 0 and GROUND class 1; otherwise the
    # requested network (every supply net for net_type=None) is class 0.
    types = (NetType.POWER, NetType.GROUND) if split_networks else (net_type,)
    supply_class = np.full(count, -1, dtype=np.int64)
    for cls, net_type in enumerate(types):
        supply_class[tables.type_nets[net_type]] = cls

    slot_net = tables.indices(assignment.order)
    net_slot = np.argsort(slot_net)  # the inverse permutation

    # ring offset: nets of earlier sides (design ring order) come first
    offset = 0
    for ring_side in design.sides:
        if ring_side is side:
            break
        offset += design.quadrants[ring_side].net_count

    row_base = [-1] * (quadrant.row_count + 1)
    watched: List[WatchedRow] = []
    next_base = run_base
    for row in watched_rows_of(quadrant, all_rows):
        via_nets = tables.row_nets[row - 1]
        counts = row_run_counts(net_slot, tables.rows, via_nets, row)
        watched.append(
            WatchedRow(
                row=row,
                via_nets=via_nets,
                run_base=next_base,
                baseline_counts=counts,
            )
        )
        row_base[row] = next_base
        next_base += len(via_nets) + 1

    rows = tables.rows.tolist()
    return SideArrays(
        side=side,
        quadrant=quadrant,
        tables=tables,
        rows=rows,
        tiers=[net.tier for net in quadrant.netlist],
        supply_class=supply_class.tolist(),
        net_run_base=list(map(row_base.__getitem__, rows)),
        via_index=list(map(ints.__getitem__, tables.via_index.tolist())),
        ring_offset=offset,
        slot_count=count,
        slot_net=list(map(ints.__getitem__, slot_net.tolist())),
        net_slot=list(map(ints.__getitem__, net_slot.tolist())),
        supply_class_array=supply_class,
        net_run_base_array=np.array(row_base, dtype=np.int64)[tables.rows],
        watched=watched,
    )


def row_run_counts(net_slot, rows, via_nets: np.ndarray, row: int) -> np.ndarray:
    """Wire count of every run on line *row* (vectorized ``run_partition``).

    The row's own nets terminate at vias and split the slot sequence into
    ``m + 1`` runs; every net whose ball lies in a lower row crosses the
    line inside the run its finger slot falls into.  ``net_slot`` and
    ``rows`` are indexed by net (arrays or lists).
    """
    net_slot = np.asarray(net_slot)
    rows = np.asarray(rows)
    via_slots = np.sort(net_slot[via_nets])
    passing_slots = net_slot[rows < row]
    run_of = np.searchsorted(via_slots, passing_slots, side="left")
    return np.bincount(run_of, minlength=len(via_nets) + 1).astype(np.int64)
