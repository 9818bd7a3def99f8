"""Cross-module property tests on generated designs (hypothesis)."""

from repro.assign import assign_design
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import (
    Assignment,
    DFAAssigner,
    IFAAssigner,
    RandomAssigner,
    is_legal,
    iter_legal_orders,
)
from repro.circuits import CircuitSpec, build_design
from repro.io import (
    assignments_from_dict,
    assignments_to_dict,
    design_from_dict,
    design_to_dict,
)
from repro.package import check_design, quadrant_from_rows
from repro.routing import (
    MonotonicRouter,
    max_density,
    max_density_of_design,
    total_flyline_length,
)

finger_counts = st.integers(min_value=16, max_value=200)
seeds = st.integers(min_value=0, max_value=10_000)


def build(count, seed, tiers=1):
    spec = CircuitSpec(
        name=f"prop{count}", finger_count=count, tier_count=tiers
    )
    return build_design(spec, seed=seed)


class TestGeneratedDesigns:
    @given(finger_counts, seeds)
    @settings(max_examples=25, deadline=None)
    def test_generation_invariants(self, count, seed):
        design = build(count, seed)
        assert design.total_net_count == count
        # net ids are dense and unique across the design
        ids = sorted(net.id for __, quadrant in design for net in quadrant.netlist)
        assert ids == list(range(count))
        # ring positions strictly increase around the ring
        positions = [
            design.ring_position(side, slot)
            for side, quadrant in design
            for slot in range(1, quadrant.net_count + 1)
        ]
        assert positions == sorted(positions)
        assert all(0 <= p < 1 for p in positions)

    @given(finger_counts, seeds)
    @settings(max_examples=20, deadline=None)
    def test_assignment_pipeline_invariants(self, count, seed):
        design = build(count, seed)
        for assigner in (RandomAssigner(), IFAAssigner(), DFAAssigner()):
            assignments = assign_design(assigner, design, seed=seed)
            for assignment in assignments.values():
                assert is_legal(assignment)
            assert max_density_of_design(assignments) >= 1

    @given(finger_counts, seeds)
    @settings(max_examples=10, deadline=None)
    def test_design_json_roundtrip(self, count, seed):
        design = build(count, seed, tiers=2)
        rebuilt = design_from_dict(design_to_dict(design))
        assert rebuilt.total_net_count == design.total_net_count
        assert [n.tier for __, quadrant in rebuilt for n in quadrant.netlist] == [
            n.tier for __, quadrant in design for n in quadrant.netlist
        ]
        assignments = assign_design(DFAAssigner(), design)
        rebuilt_assignments = assignments_from_dict(
            assignments_to_dict(assignments), rebuilt
        )
        assert {s: a.order for s, a in rebuilt_assignments.items()} == {
            s: a.order for s, a in assignments.items()
        }

    @given(finger_counts, seeds)
    @settings(max_examples=10, deadline=None)
    def test_generated_designs_pass_drc(self, count, seed):
        design = build(count, seed)
        assert check_design(design).is_clean


class TestDensityProperties:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_dfa_never_beaten_by_more_than_zero_on_fig5_family(self, seed):
        """DFA <= any random draw on the same quadrant (it is optimal there)."""
        from repro.circuits import fig5_quadrant

        quadrant = fig5_quadrant()
        dfa = max_density(DFAAssigner().assign(quadrant))
        random_draw = max_density(RandomAssigner().assign(quadrant, seed=seed))
        assert dfa <= random_draw

    def test_density_is_exact_minimum_over_orders_small(self):
        """max_density's minimum over ALL legal orders == exhaustive value."""
        quadrant = quadrant_from_rows([[0, 1, 2], [3, 4], [5]])
        values = [
            max_density(Assignment(quadrant, order))
            for order in iter_legal_orders(quadrant)
        ]
        dfa_value = max_density(DFAAssigner().assign(quadrant))
        assert dfa_value <= min(values) + 1

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_router_length_at_least_vertical_span(self, seed):
        """Every routed net is at least as long as its vertical drop."""
        from repro.circuits import fig5_quadrant

        quadrant = fig5_quadrant()
        assignment = RandomAssigner().assign(quadrant, seed=seed)
        result = MonotonicRouter().route(assignment)
        for routed in result.nets.values():
            vertical = routed.finger.y - routed.via.y
            assert routed.routed_length >= vertical - 1e-9

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_flyline_lower_bounds_routed(self, seed):
        from repro.circuits import fig5_quadrant

        quadrant = fig5_quadrant()
        assignment = RandomAssigner().assign(quadrant, seed=seed)
        result = MonotonicRouter().route(assignment)
        assert result.total_routed_length >= total_flyline_length(assignment) - 1e-9
