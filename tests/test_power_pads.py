"""Tests for the pad-to-boundary-ring mapping and the IR-drop analyzer."""

from repro.assign import assign_design
import pytest

from repro.assign import DFAAssigner, IFAAssigner, RandomAssigner
from repro.circuits import CircuitSpec, build_design, table1_circuit
from repro.errors import PowerModelError
from repro.fuzz.oracles import _reference_pad_fractions, _reference_pad_nodes
from repro.package import NetType
from repro.power import (
    IRDropAnalyzer,
    PowerGridConfig,
    pad_nodes_for_grid,
    supply_pad_fractions,
)

NET_TYPES = (NetType.POWER, NetType.GROUND, None)
GRID_SIZES = (2, 7, 32, 96)


#: Table-1 circuits 1-5 at psi 1 and 4, plus one 16,384-finger design.
EXACT_SPECS = [
    table1_circuit(circuit, tier_count=psi)
    for circuit in range(1, 6)
    for psi in (1, 4)
] + [CircuitSpec(name="synth16384", finger_count=16_384)]


class TestExactPadMapping:
    """The vectorized mapping equals the per-pad reference bit for bit."""

    @pytest.mark.parametrize(
        "spec", EXACT_SPECS, ids=[f"{s.name}-psi{s.tier_count}" for s in EXACT_SPECS]
    )
    def test_fractions_and_nodes_equal_reference(self, spec):
        design = build_design(spec, seed=0)
        for assigner in (DFAAssigner(), RandomAssigner()):
            assignments = assign_design(assigner, design, seed=1)
            for net_type in NET_TYPES:
                fractions = supply_pad_fractions(design, assignments, net_type=net_type)
                assert fractions == _reference_pad_fractions(
                    design, assignments, net_type
                )
                for size in GRID_SIZES:
                    grid = PowerGridConfig(size=size)
                    nodes = pad_nodes_for_grid(
                        design, assignments, grid, net_type=net_type
                    )
                    assert nodes == _reference_pad_nodes(
                        design, assignments, grid, net_type
                    )

    def test_sparse_ids_equal_reference(self):
        from repro.fuzz.gen import FuzzCase
        from repro.package import quadrant_tables

        case = FuzzCase(
            spec={"name": "sparse", "finger_count": 96, "rows_per_quadrant": 3},
            id_stride=1000,
        )
        design = case.build_design()
        assert all(
            quadrant_tables(q).index_of_id is None for q in design.quadrants.values()
        )
        assignments = assign_design(IFAAssigner(), design)
        for net_type in NET_TYPES:
            grid = PowerGridConfig(size=7)
            assert supply_pad_fractions(
                design, assignments, net_type=net_type
            ) == _reference_pad_fractions(design, assignments, net_type)
            assert pad_nodes_for_grid(
                design, assignments, grid, net_type=net_type
            ) == _reference_pad_nodes(design, assignments, grid, net_type)

    def test_no_supply_pads_rejected(self):
        design = build_design(
            CircuitSpec(name="nosupply", finger_count=16, supply_fraction=0.0),
            seed=0,
        )
        assignments = assign_design(DFAAssigner(), design)
        for net_type in NET_TYPES:
            with pytest.raises(PowerModelError, match="no supply pads"):
                supply_pad_fractions(design, assignments, net_type=net_type)
            with pytest.raises(PowerModelError, match="no supply pads"):
                pad_nodes_for_grid(
                    design, assignments, PowerGridConfig(size=7), net_type=net_type
                )

    def test_missing_side_rejected(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        last = small_design.sides[-1]
        del assignments[last]
        with pytest.raises(PowerModelError, match=f"side {last.value}"):
            supply_pad_fractions(small_design, assignments)


class TestSupplyPadFractions:
    def test_fractions_in_unit_interval(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        fractions = supply_pad_fractions(small_design, assignments)
        assert fractions
        assert all(0 <= f < 1 for f in fractions)

    def test_both_networks_when_none(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        power = supply_pad_fractions(small_design, assignments, net_type=NetType.POWER)
        ground = supply_pad_fractions(
            small_design, assignments, net_type=NetType.GROUND
        )
        both = supply_pad_fractions(small_design, assignments, net_type=None)
        assert len(both) == len(power) + len(ground)

    def test_missing_assignment_rejected(self, small_design):
        with pytest.raises(PowerModelError):
            supply_pad_fractions(small_design, {})

    def test_moving_a_power_pad_moves_its_fraction(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        before = sorted(
            supply_pad_fractions(small_design, assignments, net_type=None)
        )
        # find a supply pad with a signal neighbour and displace it one slot
        moved = False
        for side in small_design.sides:
            assignment = assignments[side]
            quadrant = small_design.quadrants[side]
            for supply_id in quadrant.supply_net_ids():
                slot = assignment.slot_of(supply_id)
                other = slot + 1 if slot < assignment.slot_count else slot - 1
                # only count it if the neighbour is a signal net, otherwise
                # swapping two supply pads leaves the fraction multiset intact
                if quadrant.net(assignment.net_at(other)).net_type.is_supply:
                    continue
                assignment.swap_slots(min(slot, other), max(slot, other))
                moved = True
                break
            if moved:
                break
        assert moved
        after = sorted(
            supply_pad_fractions(small_design, assignments, net_type=None)
        )
        assert before != after

    def test_pad_nodes_on_boundary(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        config = PowerGridConfig(size=16)
        nodes = pad_nodes_for_grid(small_design, assignments, config)
        g = config.size
        for x, y in nodes:
            assert x in (0, g - 1) or y in (0, g - 1)


class TestIRDropAnalyzer:
    def test_solve_and_max_drop(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        analyzer = IRDropAnalyzer(small_design, PowerGridConfig(size=16))
        result = analyzer.factorize(assignments).solve()
        assert result.max_drop == analyzer.max_drop(assignments)
        assert result.max_drop > 0

    def test_compact_cost_positive(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        analyzer = IRDropAnalyzer(small_design, PowerGridConfig(size=16))
        assert analyzer.compact_cost(assignments) > 0

    def test_improvement_sign(self, small_design):
        analyzer = IRDropAnalyzer(small_design, PowerGridConfig(size=16))
        a = assign_design(RandomAssigner(), small_design, seed=0)
        b = assign_design(RandomAssigner(), small_design, seed=1)
        improvement = analyzer.improvement(a, b)
        assert improvement == pytest.approx(
            1 - analyzer.max_drop(b) / analyzer.max_drop(a)
        )

    def test_pad_fractions_shortcut(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        analyzer = IRDropAnalyzer(small_design, PowerGridConfig(size=16))
        assert analyzer.pad_fractions(assignments) == supply_pad_fractions(
            small_design, assignments, net_type=NetType.POWER
        )
