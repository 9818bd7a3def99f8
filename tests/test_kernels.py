"""Array exchange kernel: parity with the object model, proven not assumed.

The contract of ``repro.kernels`` is strong: under a shared seed the array
kernel must walk the *identical* accept/reject trace as the object-model
reference and land on the identical final assignment, while its
incrementally maintained Eq.-3 total stays within 1e-9 of the exact
from-scratch model at every probe point.  These tests enforce that
contract on every Table-2/Table-3 circuit and on hypothesis-generated
designs.
"""

from repro.assign import assign_design
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import DFAAssigner, RandomAssigner
from repro.circuits import CircuitSpec, build_design, table1_circuit
from repro.errors import ExchangeError
from repro.exchange import (
    CachedExchangeCost,
    CostWeights,
    ExchangeCost,
    FingerPadExchanger,
    MoveGenerator,
    SAParams,
    omega_of_design,
)
from repro.exchange.annealer import SimulatedAnnealer
from repro.kernels import ArrayExchangeKernel, row_run_counts
from repro.package import NetType
from repro.routing.density import run_partition
from repro.verify import check_exchange_total

FAST_SA = SAParams(
    initial_temp=0.03, final_temp=1e-3, cooling=0.9, moves_per_temp=60
)

ALL_CONFIGS = [(tiers, index) for tiers in (1, 4) for index in (1, 2, 3, 4, 5)]


def circuit_design(index, tiers):
    return build_design(table1_circuit(index, tier_count=tiers), seed=0)


def run_object_backend(design, baseline, params, seed, weights=None):
    """Anneal through MoveGenerator + CachedExchangeCost, recording the trace."""
    working = {side: a.copy() for side, a in baseline.items()}
    cost = CachedExchangeCost(design, baseline, weights=weights)
    moves = MoveGenerator(design, working)
    trace = []

    def apply(move):
        moves.apply(move)
        cost.mark_dirty(move.side)
        trace.append((move.side, move.slot_a, True))

    def undo(move):
        moves.undo(move)
        cost.mark_dirty(move.side)
        trace[-1] = (move.side, move.slot_a, False)

    stats = SimulatedAnnealer(params).optimize(
        moves.propose,
        apply,
        undo,
        lambda: cost.total(working),
        seed=seed,
        snapshot=lambda: {side: a.order for side, a in working.items()},
    )
    return trace, {side: a.order for side, a in working.items()}, stats


def run_array_backend(design, baseline, params, seed, weights=None):
    """Anneal through ArrayExchangeKernel, recording the same-shape trace."""
    kernel = ArrayExchangeKernel(design, baseline, weights=weights)
    sides = list(design.sides)
    trace = []

    def apply(move):
        kernel.apply(move)
        trace.append((sides[move[0]], move[1], True))

    def undo(move):
        kernel.undo(move)
        trace[-1] = (sides[move[0]], move[1], False)

    stats = SimulatedAnnealer(params).optimize(
        kernel.propose, apply, undo, kernel.cost, seed=seed,
        snapshot=kernel.snapshot,
    )
    return trace, kernel.orders(), stats, kernel


class TestTraceParity:
    """Identical accept/reject traces + final states under shared seeds."""

    @pytest.mark.parametrize("tiers,index", ALL_CONFIGS)
    def test_all_table_circuits(self, tiers, index):
        design = circuit_design(index, tiers)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        trace_o, final_o, stats_o = run_object_backend(
            design, baseline, FAST_SA, seed=9
        )
        trace_a, final_a, stats_a, kernel = run_array_backend(
            design, baseline, FAST_SA, seed=9
        )
        assert trace_o == trace_a
        assert final_o == final_a
        assert stats_o.accepted == stats_a.accepted
        # A move whose true delta is exactly zero may read +1e-16 in one
        # backend's float arithmetic and 0.0 in the other's; the annealer
        # counts neither as uphill.
        assert stats_o.accepted_uphill == stats_a.accepted_uphill
        assert stats_o.best_snapshot == kernel.orders(stats_a.best_snapshot)
        assert stats_o.best_cost == pytest.approx(stats_a.best_cost, rel=1e-9)

    def test_different_seeds_do_differ(self):
        """Sanity: the parity above is not a vacuous always-equal check."""
        design = circuit_design(1, 1)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        trace_a, __, __, __ = run_array_backend(design, baseline, FAST_SA, seed=9)
        trace_b, __, __, __ = run_array_backend(design, baseline, FAST_SA, seed=10)
        assert trace_a != trace_b


class TestExchangerParity:
    """FingerPadExchanger end-to-end (anneal + polish + reporting)."""

    @pytest.mark.parametrize("tiers,index", [(1, 1), (1, 3), (4, 1), (4, 3)])
    def test_final_assignments_identical(self, tiers, index):
        design = circuit_design(index, tiers)
        baseline = assign_design(DFAAssigner(), design)
        exchanger = FingerPadExchanger(design, params=FAST_SA)
        result_o = exchanger._run_object(baseline, seed=9)
        result_a = exchanger.run(baseline, seed=9)
        assert {s: a.order for s, a in result_o.after.items()} == {
            s: a.order for s, a in result_a.after.items()
        }
        assert result_o.omega_after == result_a.omega_after
        for key, value in result_o.cost_breakdown_after.items():
            assert result_a.cost_breakdown_after[key] == pytest.approx(
                value, rel=1e-9, abs=1e-12
            )

    def test_full_default_schedule(self):
        """One run at the paper's full SA schedule, not just the fast one."""
        design = circuit_design(1, 4)
        baseline = assign_design(DFAAssigner(), design)
        exchanger = FingerPadExchanger(design)
        result_o = exchanger._run_object(baseline, seed=7)
        result_a = exchanger.run(baseline, seed=7)
        assert {s: a.order for s, a in result_o.after.items()} == {
            s: a.order for s, a in result_a.after.items()
        }


class TestKernelReport:
    """The kernel's own breakdown and omega against the exact model."""

    @staticmethod
    def assert_matches_exact(design, result, weights=None):
        exact = ExchangeCost(design, result.before, weights=weights)
        psi = design.stacking.tier_count
        for assignments, reported in (
            (result.before, result.cost_breakdown_before),
            (result.after, result.cost_breakdown_after),
        ):
            expected = exact.breakdown(assignments)
            assert set(reported) == set(expected)
            for key, value in expected.items():
                assert reported[key] == pytest.approx(value, rel=1e-9, abs=1e-9)
        assert result.omega_before == omega_of_design(result.before, psi)
        assert result.omega_after == omega_of_design(result.after, psi)

    @pytest.mark.parametrize("tiers,index", ALL_CONFIGS)
    def test_before_and_after_match_exact(self, tiers, index):
        design = circuit_design(index, tiers)
        baseline = assign_design(DFAAssigner(), design)
        result = FingerPadExchanger(design, params=FAST_SA).run(baseline, seed=9)
        self.assert_matches_exact(design, result)

    def test_with_wirelength_guard(self):
        design = circuit_design(2, 4)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        weights = CostWeights(wirelength=0.5)
        result = FingerPadExchanger(
            design, weights=weights, params=FAST_SA
        ).run(baseline, seed=9)
        self.assert_matches_exact(design, result, weights=weights)

    def test_wirelength_term_is_exact_not_accumulated(self):
        """The report's wirelength term is the resync, not the accumulator."""
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(
            design, baseline, weights=CostWeights(wirelength=1.0)
        )
        assert kernel.breakdown()["wirelength"] == 1.0
        rng = random.Random(2)
        for __ in range(40):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
        drifting = kernel._wl_total
        kernel._wl_total += 1.0  # corrupt the accumulator only
        assert kernel.breakdown()["wirelength"] == pytest.approx(
            drifting / kernel._wl_initial, rel=1e-12
        )


class TestDeltaExactness:
    """Kernel totals against the exact Eq.-3 model along random walks."""

    @pytest.mark.parametrize(
        "split,wirelength", [(False, 0.0), (True, 0.0), (False, 0.25)]
    )
    def test_random_walk_within_1e9(self, split, wirelength):
        design = circuit_design(3, 4)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        weights = CostWeights(wirelength=wirelength)
        kernel = ArrayExchangeKernel(
            design, baseline, weights=weights, split_networks=split
        )
        exact = ExchangeCost(
            design, baseline, weights=weights, split_networks=split
        )
        current = {side: a.copy() for side, a in baseline.items()}
        sides = list(design.sides)
        rng = random.Random(11)
        for step in range(400):
            move = kernel.propose(rng)
            if move is None:
                continue
            kernel.apply(move)
            current[sides[move[0]]].swap_slots(move[1], move[1] + 1)
            if step % 23 == 0:
                expected = exact.total(current)
                assert kernel.cost() == pytest.approx(expected, rel=1e-9)
        assert kernel.cost() == pytest.approx(exact.total(current), rel=1e-9)

    def test_undo_restores_exactly(self):
        design = circuit_design(2, 4)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        kernel = ArrayExchangeKernel(design, baseline)
        start = kernel.cost()
        rng = random.Random(5)
        applied = []
        for __ in range(50):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
                applied.append(move)
        for move in reversed(applied):
            kernel.undo(move)
        # integer-backed state: the revert is exact, not approximate
        assert kernel.cost() == start
        assert kernel.orders() == {
            side: a.order for side, a in baseline.items()
        }

    def test_snapshot_restore_roundtrip(self):
        design = circuit_design(1, 4)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        kernel = ArrayExchangeKernel(design, baseline)
        snapshot = kernel.snapshot()
        cost_at_snapshot = kernel.cost()
        rng = random.Random(6)
        for __ in range(80):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
        kernel.restore(snapshot)
        assert kernel.cost() == cost_at_snapshot

    def test_self_check_against_verifier(self):
        design = circuit_design(2, 1)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(design, baseline)
        rng = random.Random(4)
        for __ in range(120):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
        assert kernel.self_check(baseline).ok

    def test_check_exchange_total_flags_drift(self):
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(design, baseline)
        report = check_exchange_total(
            design, baseline, kernel.assignments(), kernel.cost() + 0.5
        )
        assert not report.ok
        assert "exchange.total-drift" in report.codes("error")


class TestStateStructures:
    def test_row_run_counts_matches_run_partition(self):
        design = circuit_design(2, 1)
        baseline = assign_design(RandomAssigner(), design, seed=8)
        kernel = ArrayExchangeKernel(design, baseline)
        for arrays in kernel.sides:
            assignment = baseline[arrays.side]
            for watched in arrays.watched:
                counts = row_run_counts(
                    arrays.net_slot, arrays.rows, watched.via_nets, watched.row
                )
                expected = [
                    count for count, __ in run_partition(assignment, watched.row)
                ]
                assert counts.tolist() == expected

    def test_orders_roundtrip(self):
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(design, baseline)
        assert kernel.orders() == {
            side: a.order for side, a in baseline.items()
        }
        materialized = kernel.assignments()
        assert {s: a.order for s, a in materialized.items()} == kernel.orders()


class TestBackendResolution:
    """The exchange picks its path from its input, never from a setting."""

    def test_auto_is_array_at_every_size(self, monkeypatch):
        calls = []
        original = FingerPadExchanger._run_array

        def counting(self, assignments, seed):
            calls.append(self.design.name)
            return original(self, assignments, seed)

        monkeypatch.setattr(FingerPadExchanger, "_run_array", counting)
        tiny = build_design(CircuitSpec(name="tiny", finger_count=16), seed=0)
        big = build_design(CircuitSpec(name="big", finger_count=512), seed=0)
        for design in (tiny, circuit_design(1, 1), big):
            baseline = assign_design(DFAAssigner(), design)
            FingerPadExchanger(design, params=FAST_SA).run(baseline, seed=1)
        assert calls == ["tiny", "circuit1", "big"]

    def test_custom_ir_proxy_stays_on_object(self, monkeypatch):
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)

        def no_kernel(*args, **kwargs):
            raise AssertionError("a custom ir_proxy must not reach the kernel")

        monkeypatch.setattr(FingerPadExchanger, "_run_array", no_kernel)
        proxy = lambda fractions: float(len(fractions))  # noqa: E731
        result = FingerPadExchanger(
            design, params=FAST_SA, ir_proxy=proxy
        ).run(baseline, seed=1)
        assert result.stats.proposed > 0

    def test_unknown_backend_rejected(self):
        """There is no ``backend=`` keyword left to set."""
        from repro.flow import CoDesignFlow

        design = circuit_design(1, 1)
        with pytest.raises(TypeError):
            FingerPadExchanger(design, backend="array")
        with pytest.raises(TypeError):
            FingerPadExchanger(design, incremental=True)
        with pytest.raises(TypeError):
            CoDesignFlow(backend="array")

    def test_exchanger_array_with_ir_proxy_raises(self, tmp_path):
        """The kernel refuses a custom proxy, so checkpointing one does too."""
        from repro.exchange import SACheckpointer

        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)
        proxy = lambda fractions: 1.0  # noqa: E731
        with pytest.raises(ExchangeError):
            ArrayExchangeKernel(design, baseline, ir_proxy=proxy)
        exchanger = FingerPadExchanger(
            design,
            params=FAST_SA,
            ir_proxy=proxy,
            checkpoint=SACheckpointer(tmp_path / "sa.ckpt", durable=False),
        )
        with pytest.raises(ExchangeError, match="array kernel"):
            exchanger.run(baseline, seed=1)


class TestPropertyParity:
    """Hypothesis: parity holds on arbitrary generated designs."""

    @given(
        st.integers(min_value=24, max_value=96),
        st.integers(min_value=0, max_value=500),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=12, deadline=None)
    def test_traces_identical_on_generated_designs(self, count, seed, tiers):
        design = build_design(
            CircuitSpec(name=f"prop{count}", finger_count=count, tier_count=tiers),
            seed=seed,
        )
        baseline = assign_design(RandomAssigner(), design, seed=seed)
        params = SAParams(
            initial_temp=0.03, final_temp=3e-3, cooling=0.85, moves_per_temp=30
        )
        trace_o, final_o, __ = run_object_backend(design, baseline, params, seed=seed)
        trace_a, final_a, __, __ = run_array_backend(design, baseline, params, seed=seed)
        assert trace_o == trace_a
        assert final_o == final_a

    @given(
        st.integers(min_value=24, max_value=80),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=10, deadline=None)
    def test_walk_cost_parity_on_generated_designs(self, count, seed):
        design = build_design(
            CircuitSpec(name=f"walk{count}", finger_count=count, tier_count=2),
            seed=seed,
        )
        baseline = assign_design(RandomAssigner(), design, seed=seed)
        kernel = ArrayExchangeKernel(design, baseline)
        exact = ExchangeCost(design, baseline)
        current = {side: a.copy() for side, a in baseline.items()}
        sides = list(design.sides)
        rng = random.Random(seed)
        for __ in range(60):
            move = kernel.propose(rng)
            if move is None:
                continue
            kernel.apply(move)
            current[sides[move[0]]].swap_slots(move[1], move[1] + 1)
        assert kernel.cost() == pytest.approx(exact.total(current), rel=1e-9)


class TestKernelSpeed:
    def test_array_beats_object_per_move(self):
        """Cheap in-suite guard; the real numbers live in bench_kernel."""
        import time

        design = build_design(
            CircuitSpec(name="speed", finger_count=896), seed=0
        )
        baseline = assign_design(DFAAssigner(), design)
        moves = 300

        kernel = ArrayExchangeKernel(design, baseline)
        rng = random.Random(0)
        start = time.perf_counter()
        for __ in range(moves):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
                kernel.cost()
        array_time = time.perf_counter() - start

        working = {side: a.copy() for side, a in baseline.items()}
        cost = CachedExchangeCost(design, baseline)
        generator = MoveGenerator(design, working)
        rng = random.Random(0)
        start = time.perf_counter()
        for __ in range(moves):
            move = generator.propose(rng)
            if move is not None:
                generator.apply(move)
                cost.mark_dirty(move.side)
                cost.total(working)
        object_time = time.perf_counter() - start

        assert array_time < object_time


def test_numpy_is_available():
    """The array backend is part of this repo's supported surface."""
    assert np is not None


class TestResyncCrossingParity:
    """Wirelength float-drift resyncs must be invisible to the SA trace.

    The kernel periodically replaces its incrementally accumulated
    wirelength with a vectorized exact recomputation.  If the resynced
    value ever differed enough to flip a Metropolis decision, the array
    and object backends would diverge from that move on — so a run forced
    across many resync boundaries must still be move-for-move identical.
    """

    @settings(max_examples=6, deadline=None)
    @given(
        count=st.integers(min_value=16, max_value=40),
        seed=st.integers(min_value=0, max_value=2 ** 16),
        tiers=st.sampled_from([1, 2, 4]),
    )
    def test_parity_across_resync_boundaries(self, count, seed, tiers):
        import repro.kernels.exchange as kernel_module

        design = build_design(
            CircuitSpec(
                f"resync{count}", count, quadrant_count=4,
                rows_per_quadrant=2, tier_count=tiers,
            ),
            seed=0,
        )
        baseline = assign_design(DFAAssigner(), design, seed=0)
        weights = CostWeights(wirelength=1.0)
        original = kernel_module.WL_RESYNC_INTERVAL
        kernel_module.WL_RESYNC_INTERVAL = 5
        try:
            object_trace, object_orders, object_stats = run_object_backend(
                design, baseline, FAST_SA, seed, weights=weights
            )
            array_trace, array_orders, array_stats, kernel = run_array_backend(
                design, baseline, FAST_SA, seed, weights=weights
            )
        finally:
            kernel_module.WL_RESYNC_INTERVAL = original
        assert kernel.resync_count >= 2, (
            "schedule too short to cross two resync boundaries"
        )
        assert array_trace == object_trace
        assert array_orders == object_orders
        assert array_stats.accepted == object_stats.accepted
        exact = ExchangeCost(design, baseline, weights=weights)
        assert kernel.cost() == pytest.approx(
            exact.total(kernel.assignments()), rel=1e-9
        )

    def test_constructor_interval_overrides_the_global(self):
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design, seed=0)
        weights = CostWeights(wirelength=1.0)
        kernel = ArrayExchangeKernel(
            design, baseline, weights=weights, wl_resync_interval=1
        )
        rng = random.Random(0)
        applied = 0
        for _ in range(50):
            move = kernel.propose(rng)
            if move is None:
                continue
            kernel.apply(move)
            applied += 1
        assert applied and kernel.resync_count == applied

    def test_bad_interval_rejected(self):
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design, seed=0)
        with pytest.raises(ExchangeError):
            ArrayExchangeKernel(design, baseline, wl_resync_interval=0)
