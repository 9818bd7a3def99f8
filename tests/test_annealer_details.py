"""Fine-grained behaviour of the SA engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exchange import SAParams, SimulatedAnnealer


def make_walker(start=0, target=0):
    """A 1-D integer walker with |x - target| cost."""
    state = {"x": start}

    def propose(rng):
        return rng.choice((-1, 1))

    def apply(move):
        state["x"] += move

    def undo(move):
        state["x"] -= move

    def cost():
        return float(abs(state["x"] - target))

    return state, propose, apply, undo, cost


class TestScheduleAccounting:
    def test_cost_trace_has_one_entry_per_temperature(self):
        params = SAParams(
            initial_temp=1.0, final_temp=0.1, cooling=0.5, moves_per_temp=3
        )
        __, propose, apply, undo, cost = make_walker()
        stats = SimulatedAnnealer(params).optimize(propose, apply, undo, cost, seed=0)
        assert len(stats.cost_trace) == params.temperature_steps()
        assert stats.proposed == params.total_moves()

    def test_temperature_steps_math(self):
        params = SAParams(initial_temp=1.0, final_temp=0.125, cooling=0.5)
        # 1.0 -> 0.5 -> 0.25 -> 0.125: needs 3 cooling steps to go <= final
        assert params.temperature_steps() == 3

    def test_float_drift_regression(self):
        """Pinned case where ceil(log(f/i)/log(c)) reported 161 steps while
        the multiplicative loop executes 162: sequential ``t *= c`` and the
        closed-form power round to opposite sides of final_temp."""
        params = SAParams(
            initial_temp=1.826083119485333,
            final_temp=6.236388535904528e-12,
            cooling=0.8487483839768104,
            moves_per_temp=1,
        )
        formula = math.ceil(
            math.log(params.final_temp / params.initial_temp)
            / math.log(params.cooling)
        )
        executed = 0
        temperature = params.initial_temp
        while temperature > params.final_temp:
            temperature *= params.cooling
            executed += 1
        assert formula == 161 and executed == 162  # the drift is real
        assert params.temperature_steps() == executed

    def test_degenerate_equal_temps_execute_zero_steps(self):
        params = SAParams(initial_temp=0.5, final_temp=0.5, cooling=0.9)
        __, propose, apply, undo, cost = make_walker()
        stats = SimulatedAnnealer(params).optimize(propose, apply, undo, cost, seed=0)
        assert params.temperature_steps() == 0
        assert stats.cost_trace == []
        assert stats.proposed == params.total_moves() == 0

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.floats(min_value=1e-6, max_value=1e4),
        ratio=st.floats(min_value=1e-12, max_value=1.0),
        cooling=st.floats(min_value=0.05, max_value=0.99),
        power=st.integers(min_value=0, max_value=120),
        exact_power=st.booleans(),
    )
    def test_reported_steps_equal_executed_steps(
        self, initial, ratio, cooling, power, exact_power
    ):
        """Reported step count == the count the loop executes, across
        extreme (T0, alpha) pairs — including finals that land exactly on
        ``initial * cooling**k``, the boundary where the old log formula
        drifted by one."""
        if exact_power:
            final = initial * (cooling ** power)
            if not (0.0 < final <= initial):
                final = initial * 0.5
        else:
            final = initial * ratio
        params = SAParams(
            initial_temp=initial, final_temp=final, cooling=cooling,
            moves_per_temp=1,
        )
        __, propose, apply, undo, cost = make_walker()
        stats = SimulatedAnnealer(params).optimize(propose, apply, undo, cost, seed=0)
        assert params.temperature_steps() == len(stats.cost_trace)
        assert stats.proposed == params.total_moves()


class TestAcceptanceRegimes:
    def test_hot_anneal_accepts_nearly_everything(self):
        params = SAParams(
            initial_temp=1000.0, final_temp=999.0, cooling=0.999, moves_per_temp=500
        )
        __, propose, apply, undo, cost = make_walker()
        stats = SimulatedAnnealer(params).optimize(propose, apply, undo, cost, seed=1)
        assert stats.acceptance_ratio > 0.95
        assert stats.accepted_uphill > 0

    def test_cold_anneal_rejects_uphill(self):
        params = SAParams(
            initial_temp=1e-9, final_temp=0.9e-9, cooling=0.9, moves_per_temp=500
        )
        state, propose, apply, undo, cost = make_walker(start=0, target=0)
        stats = SimulatedAnnealer(params).optimize(propose, apply, undo, cost, seed=1)
        # at the optimum, every move is uphill and must be rejected
        assert stats.accepted_uphill == 0
        assert state["x"] == 0

    def test_downhill_always_accepted(self):
        params = SAParams(
            initial_temp=1e-9, final_temp=0.9e-9, cooling=0.9, moves_per_temp=200
        )
        state, propose, apply, undo, cost = make_walker(start=40, target=0)
        stats = SimulatedAnnealer(params).optimize(propose, apply, undo, cost, seed=2)
        # greedy walk reaches the target despite zero temperature
        assert stats.best_cost <= 5


class TestSnapshotSemantics:
    def test_best_snapshot_tracks_best_not_final(self):
        """The walker passes through the optimum and wanders off hot; the
        snapshot must keep the best state seen."""
        params = SAParams(
            initial_temp=50.0, final_temp=40.0, cooling=0.98, moves_per_temp=400
        )
        state, propose, apply, undo, cost = make_walker(start=3, target=0)
        stats = SimulatedAnnealer(params).optimize(
            propose, apply, undo, cost, seed=3, snapshot=lambda: state["x"]
        )
        assert abs(stats.best_snapshot) == int(stats.best_cost)
        assert stats.best_cost <= stats.final_cost

    def test_best_snapshot_invariant_to_cost_backend_noise(self):
        """Two cost backends that agree only to float rounding must keep the
        same best snapshot.

        The exchange kernels compute the same Eq.-3 total with different
        arithmetic (float sums vs exact integers), so their costs differ in
        the last ulp.  A strict `<` on the best-cost test would let one
        backend re-snapshot at an equal-cost revisit the other skips; the
        BEST_IMPROVEMENT_EPS margin makes the selection identical.
        """
        params = SAParams(
            initial_temp=5.0, final_temp=0.5, cooling=0.9, moves_per_temp=200
        )

        def run(noisy):
            state, propose, apply, undo, cost = make_walker(start=4, target=0)
            trace = []

            def traced_apply(move):
                apply(move)
                trace.append(state["x"])

            def noisy_cost():
                exact = cost()
                if not noisy:
                    return exact
                # deterministic per-state last-ulp perturbation
                return exact * (1.0 + 1e-16 * (state["x"] % 5 - 2))

            stats = SimulatedAnnealer(params).optimize(
                propose, traced_apply, undo, noisy_cost,
                seed=11, snapshot=lambda: state["x"],
            )
            return trace, stats

        clean_trace, clean_stats = run(noisy=False)
        noisy_trace, noisy_stats = run(noisy=True)
        assert clean_trace == noisy_trace
        assert clean_stats.best_snapshot == noisy_stats.best_snapshot
        assert clean_stats.accepted == noisy_stats.accepted

    def test_no_snapshot_callable(self):
        params = SAParams(
            initial_temp=1.0, final_temp=0.5, cooling=0.5, moves_per_temp=10
        )
        __, propose, apply, undo, cost = make_walker()
        stats = SimulatedAnnealer(params).optimize(propose, apply, undo, cost, seed=0)
        assert stats.best_snapshot is None


class TestParamValidation:
    @pytest.mark.parametrize("moves", [2.5, 3.0, True, "3"])
    def test_non_int_moves_per_temp_rejected(self, moves):
        with pytest.raises(ValueError, match="moves_per_temp must be an int"):
            SAParams(moves_per_temp=moves)

    def test_json_job_params_rejected_before_the_anneal(self):
        """A JSON job's float move count fails at schedule construction,
        not as a TypeError inside the annealing loop."""
        import json

        from repro.runtime.jobs import _sa_params

        with pytest.raises(ValueError, match="moves_per_temp must be an int"):
            _sa_params(json.loads('{"cooling": 0.5, "moves_per_temp": 2.5}'))
        assert _sa_params(json.loads('{"moves_per_temp": 3}')).moves_per_temp == 3
