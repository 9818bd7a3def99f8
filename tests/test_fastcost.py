"""Equivalence and speed-sanity tests for the cached Eq.-3 evaluator."""

from repro.assign import assign_design
import random
import time

import pytest

from repro.assign import DFAAssigner
from repro.exchange import (
    CachedExchangeCost,
    ExchangeCost,
    FingerPadExchanger,
    MoveGenerator,
    SAParams,
)
from repro.package import NetType

FAST_SA = SAParams(initial_temp=0.03, final_temp=1e-3, cooling=0.9, moves_per_temp=60)


def _random_walk_equivalence(design, steps, **cost_kwargs):
    """Apply random legal moves; exact and cached totals must agree."""
    assignments = assign_design(DFAAssigner(), design)
    exact = ExchangeCost(design, assignments, **cost_kwargs)
    cached = CachedExchangeCost(design, assignments, **cost_kwargs)
    generator = MoveGenerator(design, assignments, power_only=False)
    rng = random.Random(0)
    assert cached.total(assignments) == pytest.approx(exact.total(assignments))
    for __ in range(steps):
        move = generator.propose(rng)
        if move is None:
            continue
        generator.apply(move)
        cached.mark_dirty(move.side)
        assert cached.total(assignments) == pytest.approx(
            exact.total(assignments), rel=1e-12
        )


class TestEquivalence:
    def test_flat_design(self, small_design):
        _random_walk_equivalence(small_design, steps=120)

    def test_stacked_design(self, stacked_design):
        _random_walk_equivalence(stacked_design, steps=120)

    def test_split_networks(self, small_design):
        _random_walk_equivalence(
            small_design, steps=80, net_type=None, split_networks=True
        )

    def test_top_line_only_tracking(self, small_design):
        _random_walk_equivalence(small_design, steps=80, track_all_rows=False)

    def test_breakdown_matches(self, stacked_design):
        assignments = assign_design(DFAAssigner(), stacked_design)
        exact = ExchangeCost(stacked_design, assignments)
        cached = CachedExchangeCost(stacked_design, assignments)
        a = exact.breakdown(assignments)
        b = cached.breakdown(assignments)
        for key in a:
            assert a[key] == pytest.approx(b[key])

    def test_undo_notification(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        exact = ExchangeCost(small_design, assignments)
        cached = CachedExchangeCost(small_design, assignments)
        generator = MoveGenerator(small_design, assignments, power_only=False)
        rng = random.Random(3)
        move = None
        while move is None:
            move = generator.propose(rng)
        generator.apply(move)
        cached.mark_dirty(move.side)
        cached.total(assignments)
        generator.undo(move)
        cached.mark_dirty(move.side)
        assert cached.total(assignments) == pytest.approx(exact.total(assignments))


class TestExchangerIntegration:
    def test_incremental_matches_exact_exchange(self, small_design):
        """The whole exchange must be seed-identical with and without caching."""
        initial = assign_design(DFAAssigner(), small_design)
        exchanger = FingerPadExchanger(small_design, params=FAST_SA)
        fast = exchanger._run_object(initial, seed=9)
        slow = exchanger._run_object(initial, seed=9, cost_class=ExchangeCost)
        assert {s: a.order for s, a in fast.after.items()} == {
            s: a.order for s, a in slow.after.items()
        }
        assert fast.stats.best_cost == pytest.approx(slow.stats.best_cost)

    def test_incremental_is_not_slower(self, small_design):
        """Soft check: caching should not cost time (usually saves ~4x)."""
        initial = assign_design(DFAAssigner(), small_design)

        exchanger = FingerPadExchanger(small_design, params=FAST_SA)

        def timed(cost_class):
            start = time.perf_counter()
            exchanger._run_object(initial, seed=9, cost_class=cost_class)
            return time.perf_counter() - start

        fast = timed(CachedExchangeCost)
        slow = timed(ExchangeCost)
        assert fast < slow * 1.5  # generous bound to stay CI-stable


class TestWirelengthTerm:
    def test_off_by_default(self, small_design):
        from repro.assign import DFAAssigner
        from repro.exchange import CostWeights, ExchangeCost

        assignments = assign_design(DFAAssigner(), small_design)
        cost = ExchangeCost(small_design, assignments)
        assert cost.wirelength_term(assignments) == 0.0
        assert "wirelength" not in cost.breakdown(assignments)

    def test_normalized_at_baseline(self, small_design):
        from repro.assign import DFAAssigner
        from repro.exchange import CostWeights, ExchangeCost

        assignments = assign_design(DFAAssigner(), small_design)
        cost = ExchangeCost(
            small_design, assignments, weights=CostWeights(wirelength=1.0)
        )
        assert cost.wirelength_term(assignments) == pytest.approx(1.0)
        assert cost.breakdown(assignments)["wirelength"] == pytest.approx(1.0)

    def test_cached_equivalence_with_wirelength(self, small_design):
        from repro.exchange import CostWeights

        _random_walk_equivalence(
            small_design, steps=60, weights=CostWeights(wirelength=0.5)
        )

    def test_guard_limits_wirelength_growth(self, stacked_design):
        """With the guard on, the exchange cannot trade much wirelength."""
        from repro.assign import DFAAssigner
        from repro.exchange import CostWeights, FingerPadExchanger
        from repro.routing import total_flyline_length_of_design

        initial = assign_design(DFAAssigner(), stacked_design)
        base_length = total_flyline_length_of_design(initial)
        unguarded = FingerPadExchanger(
            stacked_design, params=FAST_SA,
            weights=CostWeights(ir=1.0, density=0.08, bonding=0.5),
        ).run(initial, seed=11)
        guarded = FingerPadExchanger(
            stacked_design, params=FAST_SA,
            weights=CostWeights(ir=1.0, density=0.08, bonding=0.5, wirelength=3.0),
        ).run(initial, seed=11)
        guarded_len = total_flyline_length_of_design(guarded.after)
        unguarded_len = total_flyline_length_of_design(unguarded.after)
        assert guarded_len <= unguarded_len + 1e-9 or guarded_len <= base_length * 1.02
