"""Tests for the exchange building blocks: omega, sections, annealer, moves."""

from repro.assign import assign_design
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import Assignment, DFAAssigner, RandomAssigner, is_legal
from repro.circuits import FIG5_DFA_ORDER
from repro.errors import ExchangeError
from repro.exchange import (
    CostWeights,
    DesignSectionTracker,
    ExchangeCost,
    MoveGenerator,
    SAParams,
    SectionTracker,
    SimulatedAnnealer,
    bonding_improvement,
    group_masks,
    interval_numbers,
    omega,
    omega_of_assignment,
    omega_of_design,
)


class TestOmega:
    def test_paper_example_fig4(self):
        """Fig. 4: psi=2, 12 fingers; all-banked -> omega 6, alternating -> 0."""
        banked = [2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1]
        # paper Fig. 4(A): F1,F2 both tier 2 etc. -> every group misses a tier
        assert omega(banked, 2) == 6
        alternating = [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]
        assert omega(alternating, 2) == 0

    def test_group_masks(self):
        masks = group_masks([1, 2, 3, 1, 1, 1], 3)
        assert masks == [0b111, 0b001]

    def test_single_tier_is_always_zero(self):
        assert omega([1, 1, 1, 1], 1) == 0

    def test_partial_last_group(self):
        # 5 fingers, psi=2: three groups (2,2,1); last group misses one tier
        assert omega([1, 2, 1, 2, 1], 2) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ExchangeError):
            omega([1, 2], 0)
        with pytest.raises(ExchangeError):
            omega([3], 2)

    def test_bonding_improvement(self):
        assert bonding_improvement(10, 5) == pytest.approx(0.5)
        assert bonding_improvement(0, 0) == 0.0

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=40)
    )
    def test_omega_bounds(self, tiers):
        psi = 4
        value = omega(tiers, psi)
        groups = (len(tiers) + psi - 1) // psi
        assert 0 <= value <= groups * psi

    def test_omega_of_design(self, stacked_design):
        assignments = assign_design(DFAAssigner(), stacked_design)
        total = omega_of_design(assignments, 4)
        assert total == sum(
            omega_of_assignment(a, 4) for a in assignments.values()
        )


class TestSections:
    def test_interval_numbers_fig5(self, fig5):
        assignment = Assignment(fig5, FIG5_DFA_ORDER)
        counts = interval_numbers(assignment)
        # 3 top-row nets -> 4 sections, all 12 nets accounted for
        assert len(counts) == 4
        assert sum(counts) + 3 == 12

    def test_tracker_zero_at_baseline(self, fig5):
        assignment = Assignment(fig5, FIG5_DFA_ORDER)
        tracker = SectionTracker(assignment)
        assert tracker.increased_density(assignment) == 0

    def test_tracker_detects_increase(self, fig5):
        baseline = Assignment(fig5, FIG5_DFA_ORDER)
        tracker = SectionTracker(baseline)
        moved = baseline.copy()
        # swap a top-row net with a neighbour (legal: different rows)
        slot = moved.slot_of(11)
        moved.swap_slots(slot, slot + 1)
        assert tracker.increased_density(moved) >= 1

    def test_top_line_only_mode(self, fig5):
        baseline = Assignment(fig5, FIG5_DFA_ORDER)
        tracker = SectionTracker(baseline, all_rows=False)
        assert tracker.rows == [fig5.row_count]
        assert tracker.increased_density(baseline) == 0

    def test_wrong_quadrant_rejected(self, fig5, small_design):
        baseline = Assignment(fig5, FIG5_DFA_ORDER)
        tracker = SectionTracker(baseline)
        other = DFAAssigner().assign(
            small_design.quadrants[small_design.sides[0]]
        )
        with pytest.raises(ExchangeError):
            tracker.increased_density(other)

    def test_design_tracker(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        tracker = DesignSectionTracker(assignments)
        assert tracker.increased_density(assignments) == 0


class TestSAParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SAParams(initial_temp=0)
        with pytest.raises(ValueError):
            SAParams(initial_temp=0.1, final_temp=0.5)
        with pytest.raises(ValueError):
            SAParams(cooling=1.0)
        with pytest.raises(ValueError):
            SAParams(moves_per_temp=0)
        # inf never cools (temperature_steps() would not return); NaN slips
        # past every ordering check into a silent 0-step anneal
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                SAParams(initial_temp=bad)
            with pytest.raises(ValueError):
                SAParams(final_temp=bad)

    def test_schedule_accounting(self):
        params = SAParams(initial_temp=1.0, final_temp=0.1, cooling=0.5, moves_per_temp=10)
        assert params.temperature_steps() >= 3
        assert params.total_moves() == params.temperature_steps() * 10


class TestAnnealer:
    def test_minimizes_simple_quadratic(self):
        """SA must find the minimum of a 1-D discrete quadratic."""
        state = {"x": 50}

        def propose(rng):
            return rng.choice((-1, 1))

        def apply(move):
            state["x"] += move

        def undo(move):
            state["x"] -= move

        annealer = SimulatedAnnealer(
            SAParams(initial_temp=5.0, final_temp=1e-3, cooling=0.9, moves_per_temp=50)
        )
        stats = annealer.optimize(
            propose, apply, undo, cost=lambda: (state["x"] - 7) ** 2, seed=0,
            snapshot=lambda: state["x"],
        )
        assert stats.best_cost <= 1
        assert abs(stats.best_snapshot - 7) <= 1

    def test_none_moves_counted_infeasible(self):
        annealer = SimulatedAnnealer(
            SAParams(initial_temp=1.0, final_temp=0.5, cooling=0.5, moves_per_temp=5)
        )
        stats = annealer.optimize(
            propose=lambda rng: None,
            apply=lambda move: None,
            undo=lambda move: None,
            cost=lambda: 1.0,
            seed=0,
        )
        assert stats.infeasible == stats.proposed > 0
        assert stats.acceptance_ratio == 0.0

    def test_deterministic_given_seed(self):
        def run():
            state = [0]
            annealer = SimulatedAnnealer(
                SAParams(initial_temp=1.0, final_temp=0.01, cooling=0.8, moves_per_temp=20)
            )
            stats = annealer.optimize(
                propose=lambda rng: rng.choice((-1, 1)),
                apply=lambda m: state.__setitem__(0, state[0] + m),
                undo=lambda m: state.__setitem__(0, state[0] - m),
                cost=lambda: abs(state[0] - 3),
                seed=42,
            )
            return stats.final_cost
        assert run() == run()


class TestMoveGenerator:
    def test_moves_preserve_legality(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        generator = MoveGenerator(small_design, assignments)
        rng = random.Random(0)
        for __ in range(200):
            move = generator.propose(rng)
            if move is None:
                continue
            generator.apply(move)
            assert is_legal(assignments[move.side])
        # whole design still legal after many applied moves
        for assignment in assignments.values():
            assert is_legal(assignment)

    def test_undo_restores(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        before = {side: a.order for side, a in assignments.items()}
        generator = MoveGenerator(small_design, assignments)
        rng = random.Random(1)
        move = None
        while move is None:
            move = generator.propose(rng)
        generator.apply(move)
        generator.undo(move)
        assert {side: a.order for side, a in assignments.items()} == before

    def test_power_only_for_flat_ic(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        generator = MoveGenerator(small_design, assignments)
        assert generator.power_only  # psi == 1
        supply = {
            (side, net.id)
            for side, quadrant in small_design
            for net in quadrant.netlist
            if net.net_type.is_supply
        }
        assert set(generator._collect_candidates()) == supply

    def test_all_pads_for_stacked_ic(self, stacked_design):
        assignments = assign_design(DFAAssigner(), stacked_design)
        generator = MoveGenerator(stacked_design, assignments)
        assert not generator.power_only
        assert len(generator._collect_candidates()) == stacked_design.total_net_count


class TestExchangeCost:
    def test_baseline_is_normalized(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        cost = ExchangeCost(small_design, assignments)
        breakdown = cost.breakdown(assignments)
        assert breakdown["ir"] == pytest.approx(1.0)
        assert breakdown["density"] == 0.0
        assert "bonding" not in breakdown  # psi == 1

    def test_stacked_has_bonding_term(self, stacked_design):
        assignments = assign_design(DFAAssigner(), stacked_design)
        cost = ExchangeCost(stacked_design, assignments)
        breakdown = cost.breakdown(assignments)
        assert breakdown["bonding"] == pytest.approx(1.0)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            CostWeights(ir=-1)
        for name in ("ir", "density", "bonding"):
            for bad in (float("inf"), float("nan")):
                with pytest.raises(ValueError):
                    CostWeights(**{name: bad})

    def test_total_composition(self, stacked_design):
        assignments = assign_design(DFAAssigner(), stacked_design)
        weights = CostWeights(ir=2.0, density=0.5, bonding=1.5)
        cost = ExchangeCost(stacked_design, assignments, weights=weights)
        breakdown = cost.breakdown(assignments)
        expected = (
            2.0 * breakdown["ir"]
            + 0.5 * breakdown["density"]
            + 1.5 * breakdown["bonding"]
        )
        assert breakdown["total"] == pytest.approx(expected)

    def test_split_networks_mode(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        cost = ExchangeCost(
            small_design, assignments, net_type=None, split_networks=True
        )
        assert cost.ir_term(assignments) == pytest.approx(1.0)
