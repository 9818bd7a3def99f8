"""Compact (fast) IR-drop estimation used inside the exchange loop.

"If we directly use Eq. (1) to calculate IR-drop, the analysis time for the
chip is very long ... In this paper, we compute the variation of dx and dy to
be the IR-drop improvement when the location of the power pad is exchanged"
(paper section 3.2).

Eq. (1) says IR-drop at a point grows with the resistive distance (dx, dy)
to the supplying pads; minimizing the worst pad-to-point distance means
spreading the power pads evenly along the boundary ring.  The proxy used
here is the sum of squared gaps between circularly consecutive power pads on
the perimeter:

    delta_IR  =  sum_i gap_i^2        (gaps as perimeter fractions)

It is minimized exactly when all gaps are equal (Cauchy-Schwarz), it
decreases whenever a swap moves a power pad towards the middle of its gap,
and it is O(k) to evaluate for k power pads — cheap enough for every SA
move.  ``tests/test_power_compact.py`` verifies its rank correlation with
the full finite-difference solve.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..errors import NonFiniteCostError, PowerModelError

#: Fractional bits of a :func:`demand_weights` entry: the max-normalized
#: demand is rounded to a multiple of ``2**-WEIGHT_BITS``.
WEIGHT_BITS = 20

#: Error text for a demand that weighs every supply gap of the baseline
#: zero: the weighted proxy then has nothing to normalize against.
ZERO_BASELINE = "demand is zero at every supply-pad gap of the baseline"


def pad_gaps(fractions: Sequence[float]) -> List[float]:
    """Circular gaps between consecutive pad positions on the ring.

    ``fractions`` are perimeter positions in ``[0, 1)``; the result sums
    to 1.
    """
    if not fractions:
        raise PowerModelError("at least one power pad is required")
    ordered = sorted(fraction % 1.0 for fraction in fractions)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    gaps.append(1.0 - ordered[-1] + ordered[0])
    return gaps


def compact_ir_cost(fractions: Sequence[float]) -> float:
    """The delta_IR proxy: sum of squared circular pad gaps.

    Lower is better; the minimum ``1/k`` is reached by ``k`` equidistant
    pads.
    """
    return sum(gap * gap for gap in pad_gaps(fractions))


def worst_gap(fractions: Sequence[float]) -> float:
    """Largest circular gap — the region furthest from any supply."""
    return max(pad_gaps(fractions))


def weighted_compact_cost(fractions: Sequence[float], demand) -> float:
    """Demand-weighted delta_IR proxy for chips with non-uniform power.

    ``demand`` is a callable mapping a perimeter fraction in ``[0, 1)`` to
    the relative current demand of the core region behind that stretch of
    boundary.  Each circular gap is weighted by the demand at its midpoint,
    so supply-starved hot regions pull pads towards themselves.  With a
    constant demand this reduces to :func:`compact_ir_cost` (up to the
    constant factor).
    """
    ordered = sorted(fraction % 1.0 for fraction in fractions)
    if not ordered:
        raise PowerModelError("at least one power pad is required")
    total = 0.0
    for a, b in zip(ordered, ordered[1:]):
        gap = b - a
        total += gap * gap * demand((a + b) / 2.0)
    wrap_gap = 1.0 - ordered[-1] + ordered[0]
    wrap_mid = (ordered[-1] + wrap_gap / 2.0) % 1.0
    total += wrap_gap * wrap_gap * demand(wrap_mid)
    return total


def demand_weights(demand, ring_slots: int) -> List[int]:
    """Integer gap weights of *demand* on a ring of *ring_slots* positions.

    Ring position ``g`` (1-based) sits at perimeter fraction
    ``(g - 0.5) / N``, so the midpoint of any gap between two positions
    lies on a half-slot ``m / (2N)``.  Entry ``m`` of the result is the
    demand there divided by the table's maximum and rounded to
    :data:`WEIGHT_BITS` fractional bits, as an ``int`` (the peak reads
    ``2**WEIGHT_BITS``).  The exchange kernel and
    :class:`~repro.exchange.ExchangeCost` both weigh each gap by this one
    table.  With no demand every weight is 1 (the uniform proxy).
    """
    count = 2 * ring_slots
    if demand is None:
        return [1] * count
    values = [float(demand(m / count)) for m in range(count)]
    for m, value in enumerate(values):
        if not math.isfinite(value):
            raise NonFiniteCostError(
                f"demand is non-finite ({value!r}) at ring fraction {m / count:.6g}"
            )
        if value < 0:
            raise PowerModelError(
                f"demand is negative ({value!r}) at ring fraction {m / count:.6g}"
            )
    peak = max(values)
    if peak <= 0:
        raise PowerModelError("demand is zero along the whole ring")
    scale = 1 << WEIGHT_BITS
    return [round(value / peak * scale) for value in values]


def normalized_compact_cost(fractions: Sequence[float]) -> float:
    """Compact cost scaled to ``[1, k]``: 1.0 means perfectly equidistant.

    Dividing by the ideal value ``1/k`` makes values comparable across
    designs with different power-pad counts.
    """
    k = len(list(fractions))
    if k == 0:
        raise PowerModelError("at least one power pad is required")
    return compact_ir_cost(fractions) * k
