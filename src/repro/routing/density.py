"""Pre-route congestion estimation (paper sections 2.3 and 3.2).

This is the paper's second contribution: "an efficient estimation to obtain
the wire congestion map before routing ... it can directly find the most
congested region" — no full-substrate analysis required.

Model
-----
Under monotonic routing the left-to-right order of wires on every horizontal
grid line equals the finger order, and each net's via is pinned to the
bottom-left corner of its bump ball.  On the line of bump row ``y``:

* the row's own nets terminate at via candidates ``0 .. m-1`` (left gaps of
  their balls); candidate ``m`` (right of the last ball) stays free;
* every net whose ball lies in a *lower* row crosses the line somewhere, and
  the finger order pins it between two terminating vias (or beyond the
  outermost ones);
* wires pinned between the same pair of adjacent vias form a *run*; the
  router can only spread a run over the via-candidate gaps inside it, so the
  run's best achievable density is ``ceil(wires / intervals)``.

Every interior run and the leftmost run contain exactly one interval; the
rightmost run contains two (the free candidate ``m`` splits it).  The maximum
over all runs of all lines is the package's maximum density — the quantity
Table 2 reports.  On the paper's 12-net example this model reproduces the
published densities exactly (4 for the random order, 2 for IFA and DFA).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..assign import Assignment, check_legal


@dataclass(frozen=True)
class RunDensity:
    """Congestion of one run on one horizontal line."""

    row: int
    run_index: int
    wire_count: int
    interval_count: int

    @property
    def density(self) -> int:
        """Best achievable wires-per-gap for this run."""
        if self.wire_count == 0:
            return 0
        return math.ceil(self.wire_count / self.interval_count)


@dataclass
class DensityMap:
    """Full congestion map of one quadrant under one assignment."""

    runs: List[RunDensity] = field(default_factory=list)

    @property
    def max_density(self) -> int:
        """The paper's "maximum density" metric (Table 2)."""
        if not self.runs:
            return 0
        return max(run.density for run in self.runs)

    def hotspots(self) -> List[RunDensity]:
        """The run(s) achieving the maximum density (the congested region)."""
        peak = self.max_density
        return [run for run in self.runs if run.density == peak]

    def line_densities(self) -> Dict[int, int]:
        """Maximum density per horizontal line ``{row: density}``."""
        per_line: Dict[int, int] = {}
        for run in self.runs:
            per_line[run.row] = max(per_line.get(run.row, 0), run.density)
        return per_line


def run_partition(
    assignment: Assignment, row: int
) -> List[Tuple[int, int]]:
    """Partition the wires crossing line *row* into runs.

    Returns ``[(wire_count, interval_count), ...]`` left to right:
    one leftmost run, ``m - 1`` interior runs, one rightmost run
    (``m`` = ball count of the row).
    """
    quadrant = assignment.quadrant
    via_nets = quadrant.row_nets(row)
    via_slots = [assignment.slot_of(net) for net in via_nets]
    passing_slots = sorted(
        assignment.slot_of(net.id)
        for net in quadrant.netlist
        if quadrant.ball_row(net.id) < row
    )
    # A run holds the passing wires between the rightmost earlier via and its own.
    runs: List[Tuple[int, int]] = []
    spent = 0  # passing wires left of the rightmost via so far
    for via_slot in via_slots:
        left = bisect_left(passing_slots, via_slot)
        runs.append((max(0, left - spent), 1))
        spent = max(spent, left)
    # Rightmost run: the free via candidate splits it into two intervals.
    runs.append((len(passing_slots) - spent, 2))
    return runs


def density_map(assignment: Assignment, validate: bool = True) -> DensityMap:
    """Compute the pre-route congestion map of a quadrant assignment."""
    if validate:
        check_legal(assignment)
    quadrant = assignment.quadrant
    result = DensityMap()
    for row in range(2, quadrant.row_count + 1):
        for run_index, (wires, intervals) in enumerate(
            run_partition(assignment, row)
        ):
            result.runs.append(
                RunDensity(
                    row=row,
                    run_index=run_index,
                    wire_count=wires,
                    interval_count=intervals,
                )
            )
    return result


def max_density(assignment: Assignment, validate: bool = True) -> int:
    """The maximum package density of an assignment.

    Accumulates the run/interval structure of :func:`density_map` on flat
    int arrays (:mod:`repro.kernels.density`); the result is
    value-identical to ``density_map(assignment).max_density``, which
    stays the reference.
    """
    from ..kernels import max_density_of_order

    if validate:
        check_legal(assignment)
    return max_density_of_order(assignment.quadrant, assignment.order)


def max_density_of_design(assignments: Dict) -> int:
    """Maximum density across every quadrant of a design.

    ``assignments`` maps sides to :class:`Assignment` objects, as produced
    by :func:`repro.assign.assign_design`.
    """
    return max(max_density(assignment) for assignment in assignments.values())


class MonotonicDensityEstimator:
    """The paper's pre-route congestion model as a swappable staged stage.

    Satisfies the :class:`repro.api.DensityEstimator` protocol; alternative
    routers (e.g. a staircase/early-routability model) can provide their
    own estimator with the same surface.
    """

    name = "monotonic"

    def __init__(self, validate: bool = True) -> None:
        self.validate = validate

    def density_map(self, assignment: Assignment) -> DensityMap:
        """Full per-run congestion map (always the object representation)."""
        return density_map(assignment, validate=self.validate)

    def max_density(self, assignment: Assignment) -> int:
        return max_density(assignment, validate=self.validate)

    def max_density_of_design(self, assignments: Dict) -> int:
        return max(
            self.max_density(assignment) for assignment in assignments.values()
        )
