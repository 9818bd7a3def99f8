"""Synthetic test-circuit generation.

The paper evaluates on "five simplified industrial circuits" whose netlists
are not published — Table 1 only gives finger counts and package dimensions.
This generator builds deterministic synthetic equivalents: the finger count
and package geometry are taken verbatim from the spec, bump rows form the
trapezoidal quadrants of a real BGA, and supply pads are scattered over the
ball array with a seeded RNG.  The assignment/routing/IR algorithms only see
geometry and net types, which is exactly what Table 1 specifies, so the
substitution preserves the behaviour being measured (see DESIGN.md,
"Substitutions").
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from ..errors import CircuitSpecError
from ..geometry import Side
from ..package import (
    NET_TYPES,
    BumpArray,
    FingerRow,
    NetList,
    NetType,
    PackageDesign,
    PackageTechnology,
    Quadrant,
    StackingConfig,
)
from .spec import CircuitSpec

_SIDES = (Side.BOTTOM, Side.RIGHT, Side.TOP, Side.LEFT)
#: Name prefix of each net type, indexed by its column code.
_PREFIX = tuple(
    {NetType.SIGNAL: "N", NetType.POWER: "VDD", NetType.GROUND: "VSS"}[net_type]
    for net_type in NET_TYPES
)


def trapezoid_rows(net_count: int, row_count: int) -> List[int]:
    """Ball count per row, outermost first, summing to *net_count*.

    BGA quadrants are trapezoids: the package diagonals (the cut-lines of
    Fig. 2) remove one ball from *each side* of every ring moving inwards,
    so consecutive rows differ by two balls.
    """
    if net_count < row_count:
        raise CircuitSpecError(
            f"cannot spread {net_count} nets over {row_count} rows"
        )
    # Outermost row size m, then m-2, m-4, ...: sum = R*m - R*(R-1).
    base = (net_count + row_count * (row_count - 1)) // row_count - 2 * (
        row_count - 1
    )
    if base < 1:
        # Too few nets for a full trapezoid: fall back to a near-even split.
        sizes = [net_count // row_count] * row_count
        for index in range(net_count - sum(sizes)):
            sizes[index] += 1
        return sorted(sizes, reverse=True)
    sizes = [base + 2 * (row_count - row) for row in range(1, row_count + 1)]
    remainder = net_count - sum(sizes)
    for index in range(remainder):
        sizes[index % row_count] += 1
    return sorted(sizes, reverse=True)


def quadrant_net_counts(spec: CircuitSpec) -> List[int]:
    """Per-quadrant net counts; remainders go to the first sides."""
    base = spec.finger_count // spec.quadrant_count
    counts = [base] * spec.quadrant_count
    for index in range(spec.finger_count - base * spec.quadrant_count):
        counts[index] += 1
    return counts


def build_design(spec: CircuitSpec, seed: Optional[int] = 0) -> PackageDesign:
    """Materialize a :class:`PackageDesign` from a circuit spec."""
    rng = random.Random(seed)
    technology = PackageTechnology(
        bump_ball_space=spec.bump_ball_space,
        finger_width=spec.finger_width,
        finger_height=spec.finger_height,
        finger_space=spec.finger_space,
    )
    stacking = StackingConfig(tier_count=spec.tier_count)

    # Choose which global net indices are supply pads.  Real pad rings
    # spread P/G pads over every package side, so the supply budget is
    # split per quadrant first and then scattered inside each quadrant.
    # Types follow the industry habit of banking power pairs: supply pads
    # come in P,P,G,G runs around the ring — so a plan that only evens out
    # the *union* of supply pads still leaves each individual network
    # unbalanced (the effect the finger/pad exchange removes).
    total = spec.finger_count
    supply_count = round(total * spec.supply_fraction)
    counts = quadrant_net_counts(spec)
    power, ground = NET_TYPES.index(NetType.POWER), NET_TYPES.index(NetType.GROUND)
    types = np.full(total, NET_TYPES.index(NetType.SIGNAL), dtype=np.int8)
    supply_seen = 0
    offset = 0
    for quadrant_index, count in enumerate(counts):
        share = supply_count // len(counts)
        if quadrant_index < supply_count % len(counts):
            share += 1
        share = min(share, count)
        picked = offset + np.array(sorted(rng.sample(range(count), share)), np.int64)
        pair = (supply_seen + np.arange(share)) // 2 % 2
        types[picked] = np.where(pair == 0, power, ground)
        supply_seen += share
        offset += count

    # Ids run in ball order, row by row; every net gets its columns directly.
    quadrants = {}
    next_id = 0
    for side, count in zip(_SIDES, counts):
        ids = np.arange(next_id, next_id + count)
        codes = types[next_id:next_id + count]
        names = [f"{_PREFIX[c]}{i}" for c, i in zip(codes.tolist(), ids.tolist())]
        if spec.tier_count > 1:
            tiers = [rng.randrange(spec.tier_count) + 1 for __ in range(count)]
        else:
            tiers = np.ones(count, dtype=np.int64)
        netlist = NetList.from_columns(ids, names, codes, tiers)
        rows = []
        for size in trapezoid_rows(count, min(spec.rows_per_quadrant, count)):
            rows.append(list(range(next_id, next_id + size)))
            next_id += size
        bumps = BumpArray(rows, pitch=technology.bump_pitch)
        fingers = FingerRow(
            slot_count=count,
            width=technology.finger_width,
            height=technology.finger_height,
            space=technology.finger_space,
        )
        quadrants[side] = Quadrant(netlist, bumps, fingers=fingers, side=side)

    return PackageDesign(
        quadrants,
        technology=technology,
        stacking=stacking,
        name=spec.name,
    )
