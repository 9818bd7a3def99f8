"""Tests for the circuit generator, Table-1 specs and figure examples."""

from repro.assign import assign_design
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import DFAAssigner, is_legal
from repro.circuits import (
    CIRCUIT_1,
    CIRCUIT_5,
    REALCHIP_SPEC,
    TABLE1_SPECS,
    CircuitSpec,
    build_design,
    build_table1_designs,
    fig5_quadrant,
    fig13_quadrant,
    quadrant_net_counts,
    table1_circuit,
    trapezoid_rows,
)
from repro.errors import CircuitSpecError
from repro.package import NetType


class TestCircuitSpec:
    def test_table1_values(self):
        assert [spec.finger_count for spec in TABLE1_SPECS] == [96, 160, 208, 352, 448]
        assert CIRCUIT_1.bump_ball_space == 2.0
        assert CIRCUIT_1.finger_width == 0.025
        assert CIRCUIT_5.finger_space == 0.12
        for spec in TABLE1_SPECS:
            assert spec.rows_per_quadrant == 4
            assert spec.quadrant_count == 4

    def test_with_tiers(self):
        stacked = table1_circuit(2, tier_count=4)
        assert stacked.tier_count == 4
        assert stacked.finger_count == 160
        assert table1_circuit(2).tier_count == 1

    def test_validation(self):
        with pytest.raises(CircuitSpecError):
            CircuitSpec(name="bad", finger_count=2, quadrant_count=4)
        with pytest.raises(CircuitSpecError):
            CircuitSpec(name="bad", finger_count=100, supply_fraction=2.0)
        with pytest.raises(CircuitSpecError):
            CircuitSpec(name="bad", finger_count=100, tier_count=0)
        with pytest.raises(CircuitSpecError):
            CircuitSpec(name="bad", finger_count=100, quadrant_count=5)


class TestTrapezoidRows:
    def test_sums_and_shape(self):
        for count in (24, 40, 52, 88, 112):
            sizes = trapezoid_rows(count, 4)
            assert sum(sizes) == count
            assert sizes == sorted(sizes, reverse=True)
            assert all(size >= 1 for size in sizes)

    def test_bga_diagonal_step(self):
        # full trapezoids lose two balls per ring inward
        sizes = trapezoid_rows(52, 4)
        assert sizes == [16, 14, 12, 10]

    def test_small_counts_fall_back(self):
        sizes = trapezoid_rows(5, 4)
        assert sum(sizes) == 5 and all(s >= 1 for s in sizes)

    def test_too_few_nets_rejected(self):
        with pytest.raises(CircuitSpecError):
            trapezoid_rows(2, 4)

    @given(st.integers(min_value=4, max_value=300), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_property_sum_and_monotone(self, count, rows):
        if count < rows:
            return
        sizes = trapezoid_rows(count, rows)
        assert sum(sizes) == count
        assert sizes == sorted(sizes, reverse=True)


class TestBuildDesign:
    def test_finger_count_preserved(self):
        for spec in TABLE1_SPECS:
            design = build_design(spec, seed=0)
            assert design.total_net_count == spec.finger_count

    def test_quadrant_balance(self):
        counts = quadrant_net_counts(CIRCUIT_1)
        assert sum(counts) == 96
        assert max(counts) - min(counts) <= 1

    def test_supply_fraction_respected(self):
        design = build_design(CIRCUIT_1, seed=0)
        supply = sum(
            1
            for __, quadrant in design
            for net in quadrant.netlist
            if net.net_type.is_supply
        )
        assert supply == round(96 * CIRCUIT_1.supply_fraction)

    def test_supply_spread_over_quadrants(self):
        design = build_design(CIRCUIT_1, seed=0)
        per_side = [
            sum(1 for net in quadrant.netlist if net.net_type.is_supply)
            for __, quadrant in design
        ]
        assert max(per_side) - min(per_side) <= 1

    def test_both_networks_present(self):
        design = build_design(CIRCUIT_1, seed=0)
        types = {
            net.net_type
            for __, quadrant in design
            for net in quadrant.netlist
        }
        assert NetType.POWER in types and NetType.GROUND in types

    def test_deterministic(self):
        a = build_design(CIRCUIT_1, seed=5)
        b = build_design(CIRCUIT_1, seed=5)
        assert [n.name for __, quadrant in a for n in quadrant.netlist] == [
            n.name for __, quadrant in b for n in quadrant.netlist
        ]

    def test_stacked_tiers_in_range(self):
        design = build_design(table1_circuit(1, tier_count=4), seed=0)
        tiers = {net.tier for __, quadrant in design for net in quadrant.netlist}
        assert tiers <= {1, 2, 3, 4}
        assert len(tiers) == 4

    def test_build_table1_designs(self):
        designs = build_table1_designs()
        assert set(designs) == {f"circuit{i}" for i in range(1, 6)}

    def test_designs_are_assignable(self):
        design = build_design(CIRCUIT_1, seed=0)
        for assignment in assign_design(DFAAssigner(), design).values():
            assert is_legal(assignment)


class TestFigureExamples:
    def test_fig5_structure(self):
        quadrant = fig5_quadrant()
        assert quadrant.net_count == 12
        assert quadrant.row_count == 3
        assert quadrant.highest_row_nets() == [11, 6, 9]

    def test_fig13_structure(self):
        quadrant = fig13_quadrant()
        assert quadrant.net_count == 20
        assert quadrant.row_count == 4

    def test_realchip_spec(self):
        assert REALCHIP_SPEC.finger_count == 138
