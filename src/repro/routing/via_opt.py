"""Via-location optimization by iterative improvement (after [10]).

The paper pins every via at its ball's bottom-left candidate "without the
loss of generality" and cites Kubo-Takahashi [10] for the general case:
vias may occupy *any* candidate site on their ball's line, and a global
router improves congestion by re-assigning them iteratively.  This module
implements that generalization on our model:

* on line ``y`` (with ``m`` balls, hence ``m + 1`` candidate sites
  ``0..m``), the row's nets occupy distinct candidates whose order matches
  the finger order (the monotonic via rule);
* layer-1 congestion generalizes the fixed-via model: a run between two
  used candidates ``c_i < c_j`` owns ``c_j - c_i`` intervals, the leftmost
  run owns ``c_first + 1`` and the rightmost ``m - c_last + 1``;
* moving a via away from its ball costs layer-2 track: the hop from
  candidate ``c`` to ball ``j`` covers the gaps between them, and gaps
  shared by several hops congest layer 2.

The optimizer starts from the paper's bottom-left assignment and greedily
relocates the vias bounding the worst run until no single move helps.  The
fixed-via behaviour is the exact special case ``via[j] = j - 1``, which the
tests pin against :func:`repro.routing.density.density_map`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..assign import Assignment, check_legal
from ..errors import RoutingError


@dataclass
class GeneralizedDensity:
    """Layer-1 and layer-2 congestion under a via assignment."""

    layer1_runs: List[Tuple[int, int, int, int]] = field(default_factory=list)
    #: (row, gap_index) -> layer-2 hop count
    layer2_gaps: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def max_layer1(self) -> int:
        best = 0
        for __, __, wires, intervals in self.layer1_runs:
            if wires:
                best = max(best, math.ceil(wires / intervals))
        return best

    @property
    def max_layer2(self) -> int:
        return max(self.layer2_gaps.values(), default=0)

    @property
    def max_density(self) -> int:
        """The routing-limited congestion: worst of both layers."""
        return max(self.max_layer1, self.max_layer2)

    def score(self) -> Tuple[int, int, int]:
        """Lexicographic objective for the optimizer.

        ``(max density, number of runs/gaps at the max, total overflow)`` —
        the refinement lets the greedy pass accept sideways moves that
        relieve one hotspot without creating a worse one, which is what
        enables multi-via chains.
        """
        peak = self.max_density
        at_peak = 0
        overflow = 0
        for __, __, wires, intervals in self.layer1_runs:
            if not wires:
                continue
            density = math.ceil(wires / intervals)
            overflow += max(0, density - 1)
            if density == peak:
                at_peak += 1
        for count in self.layer2_gaps.values():
            overflow += max(0, count - 1)
            if count == peak:
                at_peak += 1
        return (peak, at_peak, overflow)


class ViaAssignment:
    """Candidate index per net, organized per bump row."""

    def __init__(self, assignment: Assignment) -> None:
        check_legal(assignment)
        self.assignment = assignment
        quadrant = assignment.quadrant
        # bottom-left initialization: ball j -> candidate j-1
        self.candidates: Dict[int, List[int]] = {
            row: list(range(len(quadrant.row_nets(row))))
            for row in range(1, quadrant.row_count + 1)
        }

    def candidate_of(self, net_id: int) -> int:
        quadrant = self.assignment.quadrant
        ball = quadrant.bumps.ball_of(net_id)
        return self.candidates[ball.row][ball.col - 1]

    def validate(self) -> None:
        """Check via order and per-candidate capacity on every line."""
        quadrant = self.assignment.quadrant
        for row, used in self.candidates.items():
            m = quadrant.bumps.row_size(row)
            if len(set(used)) != len(used):
                raise RoutingError(f"row {row}: two vias share a candidate")
            if any(not (0 <= c <= m) for c in used):
                raise RoutingError(f"row {row}: candidate index out of range")
            if used != sorted(used):
                raise RoutingError(
                    f"row {row}: via order disagrees with the ball order"
                )

    # -- congestion under this via assignment ------------------------------------

    def density(self) -> GeneralizedDensity:
        assignment = self.assignment
        quadrant = assignment.quadrant
        result = GeneralizedDensity()
        for row in range(1, quadrant.row_count + 1):
            used = self.candidates[row]
            m = quadrant.bumps.row_size(row)
            # layer 2: hop from candidate c to ball j covers the gaps
            # strictly between them; ball j sits between candidates j-1, j
            for ball_index, candidate in enumerate(used):
                j = ball_index + 1
                lo, hi = sorted((candidate, j - 1))
                for gap in range(lo, hi):
                    key = (row, gap)
                    result.layer2_gaps[key] = result.layer2_gaps.get(key, 0) + 1
            if row == 1:
                continue
            # layer 1 on this line (passing wires come from lower rows)
            via_slots = [
                assignment.slot_of(net_id) for net_id in quadrant.row_nets(row)
            ]
            passing = sorted(
                assignment.slot_of(net_id)
                for net_id in quadrant.netlist.ids.tolist()
                if quadrant.ball_row(net_id) < row
            )
            remaining = passing
            for index, via_slot in enumerate(via_slots):
                inside = [slot for slot in remaining if slot < via_slot]
                remaining = [slot for slot in remaining if slot > via_slot]
                if index == 0:
                    intervals = used[0] + 1
                else:
                    intervals = used[index] - used[index - 1]
                result.layer1_runs.append((row, index, len(inside), intervals))
            result.layer1_runs.append(
                (row, len(via_slots), len(remaining), m - used[-1] + 1)
            )
        return result


@dataclass
class ViaOptimizationResult:
    """Outcome of the iterative via improvement."""

    vias: ViaAssignment
    density_before: int
    density_after: int
    moves: int

    @property
    def improvement(self) -> int:
        return self.density_before - self.density_after


class ViaOptimizer:
    """Greedy iterative via relocation, in the spirit of [10]."""

    def __init__(self, max_passes: int = 20) -> None:
        if max_passes < 1:
            raise RoutingError("max_passes must be >= 1")
        self.max_passes = max_passes

    def optimize(self, assignment: Assignment) -> ViaOptimizationResult:
        vias = ViaAssignment(assignment)
        vias.validate()
        before = vias.density().max_density
        current_score = vias.density().score()
        moves = 0
        quadrant = assignment.quadrant

        for __ in range(self.max_passes):
            improved = False
            for row in range(1, quadrant.row_count + 1):
                used = vias.candidates[row]
                m = quadrant.bumps.row_size(row)
                for index in range(len(used)):
                    for step in (-1, 1):
                        target = used[index] + step
                        if not (0 <= target <= m):
                            continue
                        # keep strict order and capacity
                        if index > 0 and target <= used[index - 1]:
                            continue
                        if index < len(used) - 1 and target >= used[index + 1]:
                            continue
                        used[index] = target
                        candidate_score = vias.density().score()
                        if candidate_score < current_score:
                            current_score = candidate_score
                            moves += 1
                            improved = True
                        else:
                            used[index] = target - step
            if not improved:
                break

        vias.validate()
        return ViaOptimizationResult(
            vias=vias,
            density_before=before,
            density_after=current_score[0],
            moves=moves,
        )
