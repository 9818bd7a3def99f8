"""Unit tests for the package model (nets, bumps, fingers, quadrants)."""

import pytest

from repro.errors import PackageModelError
from repro.geometry import Side
from repro.package import (
    BumpArray,
    FingerRow,
    Net,
    NetList,
    NetType,
    PackageDesign,
    PackageTechnology,
    Quadrant,
    StackingConfig,
    assign_tiers_round_robin,
    quadrant_from_rows,
)


class TestNet:
    def test_basic(self):
        net = Net(id=3, name="N3")
        assert net.net_type is NetType.SIGNAL
        assert net.tier == 1

    def test_validation(self):
        with pytest.raises(PackageModelError):
            Net(id=-1, name="bad")
        with pytest.raises(PackageModelError):
            Net(id=0, name="")
        with pytest.raises(PackageModelError):
            Net(id=0, name="N0", tier=0)

    def test_supply_flag(self):
        assert NetType.POWER.is_supply
        assert NetType.GROUND.is_supply
        assert not NetType.SIGNAL.is_supply


class TestNetList:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(PackageModelError):
            NetList([Net(id=0, name="A"), Net(id=0, name="B")])

    def test_duplicate_names_rejected(self):
        with pytest.raises(PackageModelError):
            NetList([Net(id=0, name="A"), Net(id=1, name="A")])

    def test_lookup_and_add(self):
        netlist = NetList([Net(id=0, name="A")])
        netlist.add(Net(id=1, name="B", net_type=NetType.POWER))
        assert netlist.by_id(1).name == "B"
        assert netlist.supply_ids() == [1]
        assert 0 in netlist and 5 not in netlist
        with pytest.raises(PackageModelError):
            netlist.by_id(99)
        with pytest.raises(PackageModelError):
            netlist.add(Net(id=1, name="C"))

    def test_ids_of_type(self):
        netlist = NetList(
            [
                Net(id=0, name="A", net_type=NetType.POWER),
                Net(id=1, name="B", net_type=NetType.GROUND),
                Net(id=2, name="C"),
            ]
        )
        assert netlist.ids_of_type(NetType.GROUND) == [1]


class TestBumpArray:
    def test_structure(self, fig5):
        bumps = fig5.bumps
        assert bumps.row_count == 3
        assert bumps.net_count == 12
        assert bumps.row_nets(3) == [11, 6, 9]
        assert bumps.rows_top_down() == [3, 2, 1]
        assert bumps.row_size(1) == 5

    def test_ball_lookup(self, fig5):
        ball = fig5.bumps.ball_of(6)
        assert (ball.col, ball.row) == (2, 3)
        with pytest.raises(PackageModelError):
            fig5.bumps.ball_of(99)

    def test_duplicate_ball_rejected(self):
        with pytest.raises(PackageModelError):
            BumpArray([[1, 2], [2]])

    def test_empty_row_rejected(self):
        with pytest.raises(PackageModelError):
            BumpArray([[1], []])

    def test_positions_centered(self, fig5):
        bumps = fig5.bumps
        # row 3 has 3 balls centred on x = 0
        xs = [bumps.ball_position(n).x for n in (11, 6, 9)]
        assert xs == [-1.0, 0.0, 1.0]
        # row nearest the fingers sits one pitch below them
        assert bumps.ball_position(11).y == -1.0

    def test_via_is_bottom_left(self, fig5):
        ball = fig5.bumps.ball_position(6)
        via = fig5.bumps.via_position(6)
        assert via.x == ball.x - 0.5 and via.y == ball.y - 0.5

    def test_via_candidates(self, fig5):
        xs = fig5.bumps.via_candidate_xs(3)
        assert len(xs) == 4  # m + 1 candidates
        assert xs == sorted(xs)
        # ball j's via is candidate j-1
        assert xs[0] == pytest.approx(fig5.bumps.via_position(11).x)

    def test_validate_against(self, fig5):
        with pytest.raises(PackageModelError):
            fig5.bumps.validate_against([1, 2, 3])


class TestFingerRow:
    def test_positions(self):
        row = FingerRow(slot_count=3, width=1.0, space=1.0)
        assert row.pitch == 2.0
        assert row.slot_position(2).x == 0.0
        assert row.slot_position(1).x == -2.0
        assert row.extent == 5.0

    def test_slot_rect(self):
        row = FingerRow(slot_count=1, width=2.0, height=4.0)
        rect = row.slot_rect(1)
        assert rect.width == 2.0 and rect.height == 4.0

    def test_nearest_slot(self):
        row = FingerRow(slot_count=5, width=1.0, space=0.0)
        assert row.nearest_slot(row.slot_position(4).x) == 4
        assert row.nearest_slot(-100) == 1
        assert row.nearest_slot(100) == 5

    def test_validation(self):
        with pytest.raises(PackageModelError):
            FingerRow(slot_count=0)
        with pytest.raises(PackageModelError):
            FingerRow(slot_count=1, width=-1)
        with pytest.raises(PackageModelError):
            FingerRow(slot_count=2).slot_position(3)


class TestQuadrant:
    def test_finger_count_must_match(self, fig5):
        with pytest.raises(PackageModelError):
            Quadrant(fig5.netlist, fig5.bumps, fingers=FingerRow(slot_count=5))

    def test_accessors(self, fig5):
        assert fig5.net_count == 12
        assert fig5.ball_row(6) == 3
        assert fig5.ball_col(8) == 4
        assert fig5.highest_row_nets() == [11, 6, 9]
        assert "12 nets" in fig5.describe()

    def test_supply_ids(self, fig5_with_supply):
        assert set(fig5_with_supply.supply_net_ids()) == {9, 10}


class TestStacking:
    def test_defaults(self):
        config = StackingConfig(tier_count=3)
        assert config.is_stacked
        assert len(config.tier_heights) == 3
        assert config.full_mask() == 0b111
        assert config.tier_bitmask(2) == 0b010

    def test_flat_ic(self):
        assert not StackingConfig().is_stacked

    def test_invalid(self):
        with pytest.raises(PackageModelError):
            StackingConfig(tier_count=0)
        with pytest.raises(PackageModelError):
            StackingConfig(tier_count=2, tier_heights=(5.0,))
        with pytest.raises(PackageModelError):
            StackingConfig(tier_count=2, tier_heights=(10.0, 5.0))

    def test_bonding_wire_length_grows_with_tier(self):
        config = StackingConfig(tier_count=3)
        lengths = [config.bonding_wire_length(d) for d in (1, 2, 3)]
        assert lengths == sorted(lengths)
        assert config.bonding_wire_length(1, 10) > config.bonding_wire_length(1)

    def test_total_bonding_length_prefers_interleaved(self):
        config = StackingConfig(tier_count=2)
        interleaved = config.total_bonding_length([1, 2, 1, 2, 1, 2])
        banked = config.total_bonding_length([1, 1, 1, 2, 2, 2])
        assert interleaved < banked

    def test_round_robin(self):
        assert assign_tiers_round_robin(5, 2) == [1, 2, 1, 2, 1]
        with pytest.raises(PackageModelError):
            assign_tiers_round_robin(0, 2)


class TestPackageDesign:
    def test_ring_positions(self, small_design):
        sides = small_design.sides
        assert sides[0] is Side.BOTTOM
        first = small_design.ring_position(sides[0], 1)
        last = small_design.ring_position(sides[-1], small_design.quadrants[sides[-1]].net_count)
        assert 0 < first < last < 1

    def test_ring_position_bounds(self, small_design):
        with pytest.raises(PackageModelError):
            small_design.ring_position(Side.BOTTOM, 0)

    def test_total_nets(self, small_design):
        assert small_design.total_net_count == 96

    def test_tier_validation(self, fig5):
        quadrant = quadrant_from_rows(
            [[10, 2, 4, 7, 0], [1, 3, 5, 8], [11, 6, 9]], tiers={10: 3}
        )
        with pytest.raises(PackageModelError):
            PackageDesign({Side.BOTTOM: quadrant})  # tier 3 > psi 1

    def test_technology_validation(self):
        with pytest.raises(PackageModelError):
            PackageTechnology(via_diameter=0)
        tech = PackageTechnology()
        assert tech.bump_pitch == pytest.approx(1.4)
        assert tech.finger_pitch == pytest.approx(0.22)

    def test_describe(self, small_design):
        text = small_design.describe()
        assert "96 finger/pads" in text
