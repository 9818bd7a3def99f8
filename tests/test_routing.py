"""Tests for density estimation and the monotonic router."""

from repro.assign import assign_design
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import Assignment, DFAAssigner, IFAAssigner, RandomAssigner
from repro.circuits import FIG5_DFA_ORDER, FIG5_RANDOM_ORDER, fig5_quadrant
from repro.errors import RoutingError
from repro.package import quadrant_from_rows
from repro.routing import (
    MonotonicRouter,
    density_map,
    max_density,
    max_density_of_design,
    plan_vias,
    route_design,
    run_partition,
    total_flyline_length,
    total_flyline_length_of_design,
    verify_via_order,
    via_capacity_check,
    wirelength_by_row,
)

row_sizes = st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=4)


def random_quadrant(sizes):
    next_id = iter(range(10_000))
    return quadrant_from_rows([[next(next_id) for __ in range(s)] for s in sizes])


class TestDensityModel:
    def test_fig5_random_density_is_4(self, fig5):
        assert max_density(Assignment(fig5, FIG5_RANDOM_ORDER)) == 4

    def test_fig5_dfa_density_is_2(self, fig5):
        assert max_density(Assignment(fig5, FIG5_DFA_ORDER)) == 2

    def test_run_partition_structure(self, fig5):
        assignment = Assignment(fig5, FIG5_DFA_ORDER)
        runs = run_partition(assignment, 3)
        # m vias -> m + 1 runs; rightmost run has two intervals
        assert len(runs) == 4
        assert runs[-1][1] == 2
        assert all(intervals == 1 for __, intervals in runs[:-1])
        # all 9 passing wires accounted for
        assert sum(wires for wires, __ in runs) == 9

    def test_density_map_contents(self, fig5):
        dmap = density_map(Assignment(fig5, FIG5_RANDOM_ORDER))
        assert dmap.max_density == 4
        hotspots = dmap.hotspots()
        assert hotspots and all(run.density == 4 for run in hotspots)
        per_line = dmap.line_densities()
        assert per_line[3] == 4 and per_line[2] <= 4

    def test_single_row_has_no_congestion(self):
        quadrant = quadrant_from_rows([[1, 2, 3]])
        assignment = Assignment(quadrant, [1, 2, 3])
        assert max_density(assignment) == 0

    def test_illegal_assignment_rejected(self, fig5):
        order = list(FIG5_DFA_ORDER)
        i6, i9 = order.index(6), order.index(9)
        order[i6], order[i9] = order[i9], order[i6]
        with pytest.raises(Exception):
            density_map(Assignment(fig5, order))

    @given(row_sizes, st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_density_nonnegative_and_bounded(self, sizes, seed):
        quadrant = random_quadrant(sizes)
        assignment = RandomAssigner().assign(quadrant, seed=seed)
        density = max_density(assignment)
        assert 0 <= density <= quadrant.net_count


class TestViaPlanner:
    def test_one_via_per_net(self, fig5):
        assignment = Assignment(fig5, FIG5_DFA_ORDER)
        vias = plan_vias(assignment)
        assert len(vias) == fig5.net_count
        via_capacity_check(assignment)
        verify_via_order(assignment, vias)

    def test_via_order_violation_detected(self, fig5):
        order = list(FIG5_DFA_ORDER)
        i6, i9 = order.index(6), order.index(9)
        order[i6], order[i9] = order[i9], order[i6]
        assignment = Assignment(fig5, order)
        vias = plan_vias(assignment)
        with pytest.raises(RoutingError):
            verify_via_order(assignment, vias)


class TestMonotonicRouter:
    def test_realized_density_matches_estimate(self, fig5):
        for order in (FIG5_RANDOM_ORDER, FIG5_DFA_ORDER):
            assignment = Assignment(fig5, order)
            result = MonotonicRouter().route(assignment)
            assert result.max_density == max_density(assignment)

    def test_paths_are_monotonic(self, fig5):
        result = MonotonicRouter().route(Assignment(fig5, FIG5_RANDOM_ORDER))
        for routed in result.nets.values():
            assert routed.is_monotonic()

    def test_routed_length_bounds_flyline(self, fig5):
        assignment = Assignment(fig5, FIG5_DFA_ORDER)
        result = MonotonicRouter().route(assignment)
        for routed in result.nets.values():
            assert routed.routed_length >= routed.flyline_length - 1e-9

    def test_illegal_order_raises(self, fig5):
        order = list(FIG5_DFA_ORDER)
        i6, i9 = order.index(6), order.index(9)
        order[i6], order[i9] = order[i9], order[i6]
        with pytest.raises(RoutingError):
            MonotonicRouter().route(Assignment(fig5, order))

    def test_total_lengths_positive(self, fig5):
        result = MonotonicRouter().route(Assignment(fig5, FIG5_DFA_ORDER))
        assert result.total_flyline_length > 0
        assert result.total_routed_length >= result.total_flyline_length - 1e-9

    @given(row_sizes, st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_router_invariants_on_random_quadrants(self, sizes, seed):
        quadrant = random_quadrant(sizes)
        assignment = RandomAssigner().assign(quadrant, seed=seed)
        result = MonotonicRouter().route(assignment)
        # every net routed, realized congestion equals the estimate
        assert len(result.nets) == quadrant.net_count
        assert result.max_density == max_density(assignment)
        for routed in result.nets.values():
            assert routed.is_monotonic()

    def test_crossing_x_at(self, fig5):
        result = MonotonicRouter().route(Assignment(fig5, FIG5_DFA_ORDER))
        routed = result.nets[10]  # ball on row 1: crosses rows 3 and 2
        line_y = fig5.bumps.row_y(3)
        x = routed.crossing_x_at(line_y)
        assert isinstance(x, float)


class TestWirelength:
    def test_totals_are_sums(self, fig5):
        assignment = Assignment(fig5, FIG5_DFA_ORDER)
        total = total_flyline_length(assignment)
        by_row = wirelength_by_row(assignment)
        assert sum(by_row.values()) == pytest.approx(total)

    def test_dfa_shorter_than_random_on_average(self):
        # aggregated over several seeds to avoid single-draw luck
        quadrant = fig5_quadrant()
        dfa_length = total_flyline_length(DFAAssigner().assign(quadrant))
        random_lengths = [
            total_flyline_length(RandomAssigner().assign(quadrant, seed=s))
            for s in range(10)
        ]
        assert dfa_length <= sum(random_lengths) / len(random_lengths)


def _per_net_total(assignments):
    """The object-model reference: every net's flyline, one at a time."""
    return sum(total_flyline_length(a) for a in assignments.values())


class TestVectorizedFlyline:
    """``total_flyline_length_of_design`` against the per-net object sum."""

    @pytest.mark.parametrize("index", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("tiers", [1, 4])
    def test_table1_circuits(self, index, tiers):
        from repro.circuits import build_design, table1_circuit

        design = build_design(table1_circuit(index, tier_count=tiers), seed=0)
        for assignments in (
            assign_design(DFAAssigner(), design),
            assign_design(RandomAssigner(), design, seed=index),
        ):
            reference = _per_net_total(assignments)
            assert total_flyline_length_of_design(assignments) == pytest.approx(
                reference, rel=1e-12
            )

    def test_fuzz_edge_pool_designs(self):
        """Designs with missing sides and one-net sides from the fuzz pools."""
        from repro.errors import ReproError
        from repro.fuzz.gen import generate_cases

        missing_sides = one_net_sides = 0
        for case in generate_cases(120, seed=0):
            design = case.build_design()
            try:
                assignments = assign_design(RandomAssigner(), design, seed=1)
            except ReproError:
                continue
            missing_sides += len(design.quadrants) < 4
            one_net_sides += min(q.net_count for q in design.quadrants.values()) == 1
            reference = _per_net_total(assignments)
            assert total_flyline_length_of_design(assignments) == pytest.approx(
                reference, rel=1e-12
            )
        assert missing_sides and one_net_sides

    def test_tables_are_built_once_per_quadrant(self, small_design):
        from repro.package import quadrant_tables

        quadrant = next(iter(small_design.quadrants.values()))
        assert quadrant_tables(quadrant) is quadrant_tables(quadrant)

    def test_fig5_quadrant(self, fig5):
        for order in (FIG5_DFA_ORDER, FIG5_RANDOM_ORDER):
            assignment = Assignment(fig5, order)
            assert total_flyline_length_of_design(
                {fig5.side: assignment}
            ) == pytest.approx(total_flyline_length(assignment), rel=1e-12)


class TestDesignLevel:
    def test_route_design_and_aggregates(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        results = route_design(assignments)
        assert set(results) == set(assignments)
        assert max_density_of_design(assignments) == max(
            r.max_density for r in results.values()
        )
        assert total_flyline_length_of_design(assignments) > 0
