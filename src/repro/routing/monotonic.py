"""Monotonic two-layer BGA router in the style of Kubo-Takahashi [10].

The paper does not route packages itself — it adopts [10]'s monotonic
routing principle "to plan the via location and the routing path" and uses
the resulting congestion to score assignments.  This module realizes that
router for our package model:

* every net drops from its finger, crosses each horizontal grid line at most
  once (no detours), reaches its via (pinned at its ball's bottom-left
  corner) and hops to the ball on layer 2;
* on every line, the left-to-right wire order equals the finger order
  (planarity within the quadrant), so crossings never intersect on layer 1;
* wires pinned between the same pair of terminating vias (a *run*) are
  spread round-robin over the via-candidate gaps available to the run, which
  achieves the congestion lower bound of :mod:`repro.routing.density`.

The router raises :class:`~repro.errors.RoutingError` on assignments that
violate the monotonic rule — "the assignment result can certainly lead to a
legal routing solution" only holds for legal orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..assign import Assignment, is_legal
from ..errors import RoutingError
from ..geometry import Point
from .density import DensityMap, density_map
from .paths import RoutedNet
from .via_planner import plan_vias, verify_via_order, via_capacity_check


@dataclass
class RoutingResult:
    """Everything the router produces for one quadrant."""

    nets: Dict[int, RoutedNet] = field(default_factory=dict)
    density: DensityMap = field(default_factory=DensityMap)

    @property
    def max_density(self) -> int:
        return self.density.max_density

    @property
    def total_flyline_length(self) -> float:
        """Table 2's wirelength metric, summed over all nets."""
        return sum(net.flyline_length for net in self.nets.values())

    @property
    def total_routed_length(self) -> float:
        """Realized polyline wirelength, summed over all nets."""
        return sum(net.routed_length for net in self.nets.values())


class MonotonicRouter:
    """Order-preserving, detour-free router for one quadrant."""

    def route(self, assignment: Assignment) -> RoutingResult:
        """Route every net of *assignment*; raises on illegal orders."""
        if not is_legal(assignment):
            raise RoutingError(
                "assignment violates the monotonic rule; no monotonic "
                "routing exists"
            )
        quadrant = assignment.quadrant
        vias = plan_vias(assignment)
        via_capacity_check(assignment)
        verify_via_order(assignment, vias)

        bumps = quadrant.bumps
        left_bound, right_bound = self._bounds(assignment)

        # crossings[net_id] collects (y, x) waypoints, top line first.
        net_ids = quadrant.netlist.ids.tolist()
        crossings: Dict[int, List[Point]] = {net_id: [] for net_id in net_ids}

        for row in range(bumps.row_count, 1, -1):
            candidates = bumps.via_candidate_xs(row)
            via_nets = quadrant.row_nets(row)
            via_slots = [assignment.slot_of(net) for net in via_nets]
            passing = sorted(
                (assignment.slot_of(net_id), net_id)
                for net_id in net_ids
                if quadrant.ball_row(net_id) < row
            )
            line_y = bumps.row_y(row)
            self._place_line(
                crossings,
                passing,
                via_slots,
                candidates,
                line_y,
                left_bound,
                right_bound,
            )

        result = RoutingResult(density=density_map(assignment, validate=False))
        for net_id in net_ids:
            finger = assignment.finger_position(net_id)
            via = vias[net_id].position
            ball = bumps.ball_position(net_id)
            waypoints = [finger] + crossings[net_id] + [via]
            routed = RoutedNet(
                net_id=net_id,
                finger=finger,
                via=via,
                ball=ball,
                layer1_points=waypoints,
            )
            if not routed.is_monotonic():
                raise RoutingError(f"router produced a detour for net {net_id}")
            result.nets[net_id] = routed
        self._verify_order_preserved(result, assignment)
        return result

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _bounds(assignment: Assignment) -> tuple:
        quadrant = assignment.quadrant
        pitch = quadrant.bumps.pitch
        widest = max(
            quadrant.bumps.row_size(row) for row in range(1, quadrant.row_count + 1)
        )
        half_span = max(
            (widest + 1) / 2.0 * pitch, quadrant.fingers.extent / 2.0
        )
        return (-half_span - pitch, half_span + pitch)

    @staticmethod
    def _place_line(
        crossings: Dict[int, List[Point]],
        passing: List[tuple],
        via_slots: List[int],
        candidates: List[float],
        line_y: float,
        left_bound: float,
        right_bound: float,
    ) -> None:
        """Assign a crossing x to every passing wire on one line.

        Wires in each run are distributed round-robin over the run's
        intervals (matching the density model's ``ceil(w / k)`` bound) and
        spaced evenly inside each interval, preserving finger order.
        """
        m = len(via_slots)
        # Runs and their interval boundaries.  Interior runs and the leftmost
        # run own one interval; the rightmost run owns two, split by the free
        # candidate (index m).
        run_intervals: List[List[tuple]] = []
        run_intervals.append([(left_bound, candidates[0])])
        for j in range(1, m):
            run_intervals.append([(candidates[j - 1], candidates[j])])
        run_intervals.append(
            [(candidates[m - 1], candidates[m]), (candidates[m], right_bound)]
        )

        # Partition passing wires by via slots.
        remaining = list(passing)
        runs: List[List[tuple]] = []
        for via_slot in via_slots:
            inside = [item for item in remaining if item[0] < via_slot]
            remaining = [item for item in remaining if item[0] > via_slot]
            runs.append(inside)
        runs.append(remaining)

        for wires, intervals in zip(runs, run_intervals):
            if not wires:
                continue
            k = len(intervals)
            w = len(wires)
            buckets: List[List[tuple]] = [[] for __ in range(k)]
            for index, wire in enumerate(wires):
                buckets[index * k // w].append(wire)
            for bucket, (x_lo, x_hi) in zip(buckets, intervals):
                count = len(bucket)
                for position, (__, net_id) in enumerate(bucket, start=1):
                    x = x_lo + (x_hi - x_lo) * position / (count + 1)
                    crossings[net_id].append(Point(x, line_y))

    @staticmethod
    def _verify_order_preserved(result: RoutingResult, assignment: Assignment) -> None:
        """Planarity audit: crossing order on every line == finger order."""
        quadrant = assignment.quadrant
        for row in range(quadrant.row_count, 1, -1):
            line_y = quadrant.bumps.row_y(row)
            on_line = []
            for net_id in quadrant.netlist.ids.tolist():
                if quadrant.ball_row(net_id) < row:
                    routed = result.nets[net_id]
                    for point in routed.layer1_points[1:-1]:
                        if point.y == line_y:
                            on_line.append((point.x, assignment.slot_of(net_id)))
                            break
            on_line.sort()
            slots = [slot for __, slot in on_line]
            if slots != sorted(slots):
                raise RoutingError(
                    f"wire order on row {row} line disagrees with finger order"
                )


def route_design(assignments: Dict) -> Dict:
    """Route every quadrant of a design: ``{side: RoutingResult}``."""
    router = MonotonicRouter()
    return {side: router.route(assignment) for side, assignment in assignments.items()}
