"""Deeper tests of the test-circuit generator."""

import collections

import pytest

from repro.circuits import CircuitSpec, build_design, quadrant_net_counts
from repro.errors import CircuitSpecError
from repro.geometry import Side
from repro.package import NetType


class TestSupplyTyping:
    def test_pg_banking_pattern(self):
        """Supply pads arrive in P,P,G,G runs around the ring."""
        spec = CircuitSpec(name="t", finger_count=160, supply_fraction=0.25)
        design = build_design(spec, seed=0)
        sequence = [
            net.net_type
            for __, quadrant in design for net in quadrant.netlist
            if net.net_type.is_supply
        ]
        # reconstruct the bank pattern: P P G G P P G G ...
        expected = [
            NetType.POWER if (index // 2) % 2 == 0 else NetType.GROUND
            for index in range(len(sequence))
        ]
        assert sequence == expected

    def test_supply_names(self):
        design = build_design(
            CircuitSpec(name="t", finger_count=64, supply_fraction=0.25), seed=1
        )
        for __, quadrant in design:
            for net in quadrant.netlist:
                if net.net_type is NetType.POWER:
                    assert net.name.startswith("VDD")
                elif net.net_type is NetType.GROUND:
                    assert net.name.startswith("VSS")
                else:
                    assert net.name.startswith("N")

    def test_zero_supply_fraction(self):
        design = build_design(
            CircuitSpec(name="t", finger_count=32, supply_fraction=0.0), seed=0
        )
        assert all(
            not net.net_type.is_supply
            for __, quadrant in design
            for net in quadrant.netlist
        )

    def test_full_supply_fraction(self):
        design = build_design(
            CircuitSpec(name="t", finger_count=32, supply_fraction=1.0), seed=0
        )
        assert all(
            net.net_type.is_supply
            for __, quadrant in design
            for net in quadrant.netlist
        )


class TestStructure:
    def test_reduced_quadrant_count(self):
        spec = CircuitSpec(name="t", finger_count=24, quadrant_count=2)
        design = build_design(spec, seed=0)
        assert len(design.sides) == 2
        assert design.sides == [Side.BOTTOM, Side.RIGHT]
        assert design.total_net_count == 24

    def test_single_quadrant(self):
        spec = CircuitSpec(name="t", finger_count=20, quadrant_count=1)
        design = build_design(spec, seed=0)
        assert design.sides == [Side.BOTTOM]

    def test_quadrant_counts_balance(self):
        for total in (96, 97, 98, 99):
            spec = CircuitSpec(name="t", finger_count=total)
            counts = quadrant_net_counts(spec)
            assert sum(counts) == total
            assert max(counts) - min(counts) <= 1

    def test_rows_per_quadrant_respected(self):
        spec = CircuitSpec(name="t", finger_count=96, rows_per_quadrant=3)
        design = build_design(spec, seed=0)
        for __, quadrant in design:
            assert quadrant.row_count == 3

    def test_net_ids_follow_ring_order(self):
        design = build_design(CircuitSpec(name="t", finger_count=48), seed=0)
        ids = [net.id for __, quadrant in design for net in quadrant.netlist]
        assert ids == sorted(ids)


class TestTierAssignment:
    def test_tier_histogram_roughly_uniform(self):
        spec = CircuitSpec(name="t", finger_count=400, tier_count=4)
        design = build_design(spec, seed=0)
        histogram = collections.Counter(
            net.tier for __, quadrant in design for net in quadrant.netlist
        )
        assert set(histogram) == {1, 2, 3, 4}
        assert max(histogram.values()) < 2 * min(histogram.values())

    def test_flat_design_single_tier(self):
        design = build_design(CircuitSpec(name="t", finger_count=48), seed=0)
        assert {net.tier for __, quadrant in design for net in quadrant.netlist} == {1}


class TestSpecEdges:
    def test_too_few_fingers_for_rows(self):
        with pytest.raises(CircuitSpecError):
            CircuitSpec(name="t", finger_count=8, rows_per_quadrant=4)

    def test_rows_fit_when_quadrants_reduced(self):
        spec = CircuitSpec(
            name="t", finger_count=8, rows_per_quadrant=4, quadrant_count=2
        )
        design = build_design(spec, seed=0)
        assert design.total_net_count == 8
