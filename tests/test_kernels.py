"""Array exchange kernel: parity with the object model, proven not assumed.

The contract of ``repro.kernels`` is strong: under a shared seed the array
kernel must walk the *identical* accept/reject trace as the object-model
reference and land on the identical final assignment, while its
incrementally maintained Eq.-3 total stays within 1e-9 of the exact
from-scratch model at every probe point.  These tests enforce that
contract on every Table-2/Table-3 circuit and on hypothesis-generated
designs, and with a demand-weighted IR proxy on the Fig.-6 chip.
"""

from repro.assign import assign_design
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import DFAAssigner, RandomAssigner
from repro.circuits import CircuitSpec, build_design, table1_circuit
from repro.errors import ExchangeError, NonFiniteCostError, PowerModelError
from repro.exchange import (
    CostWeights,
    ExchangeCost,
    FingerPadExchanger,
    GreedyExchanger,
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


def ramp_demand(fraction):
    """A non-uniform demand: seven ramps around the ring, never zero."""
    return 0.2 + (fraction * 7 % 1.0) ** 2


def run_object_backend(design, baseline, params, seed, weights=None):
    """Anneal through MoveGenerator + ExchangeCost, recording the trace."""
    working = {side: a.copy() for side, a in baseline.items()}
    cost = ExchangeCost(design, baseline, weights=weights)
    moves = MoveGenerator(design, working)
    trace = []

    def apply(move):
        moves.apply(move)
        trace.append((move.side, move.slot_a, True))

    def undo(move):
        moves.undo(move)
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


class TestDeltaExactness:
    """Kernel totals against the exact Eq.-3 model along random walks."""

    @pytest.mark.parametrize("split", [False, True])
    def test_random_walk_within_1e9(self, split, demand=None):
        design = circuit_design(3, 4)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        kernel = ArrayExchangeKernel(
            design, baseline, split_networks=split, demand=demand
        )
        exact = ExchangeCost(design, baseline, split_networks=split, demand=demand)
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

    @pytest.mark.parametrize("split", [False, True])
    def test_demand_walk_within_1e9(self, split):
        self.test_random_walk_within_1e9(split, demand=ramp_demand)

    def test_self_check_against_verifier(self, demand=None):
        design = circuit_design(2, 1)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(design, baseline, demand=demand)
        rng = random.Random(4)
        for __ in range(120):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
        assert kernel.self_check(baseline).ok

    def test_demand_self_check_against_verifier(self):
        self.test_self_check_against_verifier(demand=ramp_demand)

    def test_self_check_needs_the_kernel_demand(self):
        """The verifier re-derives under the demand, so a uniform
        re-derivation of a demand kernel's total drifts."""
        design = circuit_design(2, 1)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(design, baseline, demand=ramp_demand)
        random_walk(kernel, 120, seed=4)
        report = check_exchange_total(
            design, baseline, kernel.assignments(), kernel.cost()
        )
        assert "exchange.total-drift" in report.codes("error")

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

    @pytest.mark.parametrize("tiers,index", ALL_CONFIGS)
    @pytest.mark.parametrize("split", [False, True])
    def test_incremental_state_matches_rebuild(self, tiers, index, split):
        """After an accept-all walk every incremental structure equals the
        one a rebuild derives from the walked slots — including the ring
        links and runs that only the polish screen reads."""
        design = circuit_design(index, tiers)
        baseline = assign_design(DFAAssigner(), design)
        walked = ArrayExchangeKernel(design, baseline, split_networks=split)
        random_walk(walked, 2000, seed=index)
        fresh = ArrayExchangeKernel(design, baseline, split_networks=split)
        fresh.restore(walked.snapshot())
        assert walked.orders() == fresh.orders()
        for arrays in walked.sides:
            assert [arrays.net_slot[net] for net in arrays.slot_net] == list(
                range(arrays.slot_count)
            )
        assert walked._sumsq == fresh._sumsq
        for cls in range(walked._class_count):
            occupied = [
                arrays.ring_offset + arrays.net_slot[net] + 1
                for arrays in fresh.sides
                for net, net_class in enumerate(arrays.supply_class)
                if net_class == cls
            ]
            for links in ("_nxt", "_prv"):
                assert [getattr(walked, links)[cls][p] for p in occupied] == [
                    getattr(fresh, links)[cls][p] for p in occupied
                ]
        assert walked._run_delta == fresh._run_delta
        assert walked._hist == fresh._hist
        assert walked._max_delta == fresh._max_delta
        if tiers > 1:
            assert walked._group_zeros == fresh._group_zeros
            assert walked._omega_total == fresh._omega_total


def random_walk(kernel, moves, seed):
    """Apply *moves* random proposals: a mid-anneal state with run deltas."""
    rng = random.Random(seed)
    for __ in range(moves):
        move = kernel.propose(rng)
        if move is not None:
            kernel.apply(move)


def reference_polish(kernel, passes):
    """The per-slot swap/cost/revert loop the screened polish replaces."""
    current = kernel.cost()
    for __ in range(passes):
        improved = False
        for q, arrays in enumerate(kernel.sides):
            for lo in range(1, arrays.slot_count):
                slot_net = arrays.slot_net
                if arrays.rows[slot_net[lo - 1]] == arrays.rows[slot_net[lo]]:
                    continue
                kernel._swap(q, lo)
                candidate = kernel.cost()
                if candidate < current - 1e-12:
                    current, improved = candidate, True
                else:
                    kernel._swap(q, lo)
        if not improved:
            break


class TestPolishScreen:
    """The screened polish against measured swaps and the per-slot loop."""

    @staticmethod
    def assert_screen_exact(kernel):
        """Every legal swap's screened deltas equal a swap/measure/unswap."""
        density_deltas = []
        for q, arrays in enumerate(kernel.sides):
            los, sumsq, density = kernel._screen_deltas(q, 1)
            slot_net = arrays.slot_net
            legal = [
                lo for lo in range(1, arrays.slot_count)
                if arrays.rows[slot_net[lo - 1]] != arrays.rows[slot_net[lo]]
            ]
            assert los.tolist() == legal
            for lo, screened_ir, screened_id in zip(los, sumsq, density):
                ir, peak = sum(kernel._sumsq), kernel._max_delta
                kernel._swap(q, int(lo))
                measured = (sum(kernel._sumsq) - ir, kernel._max_delta - peak)
                kernel._swap(q, int(lo))
                assert measured == (screened_ir, screened_id)
            density_deltas.extend(density.tolist())
        return density_deltas

    @pytest.mark.parametrize("tiers,index", ALL_CONFIGS)
    @pytest.mark.parametrize(
        "split,all_rows", [(False, True), (True, True), (False, False)]
    )
    def test_deltas_match_measured_swaps(self, tiers, index, split, all_rows):
        design = circuit_design(index, tiers)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(
            design, baseline, split_networks=split, track_all_rows=all_rows
        )
        self.assert_screen_exact(kernel)
        random_walk(kernel, 300, seed=index)
        self.assert_screen_exact(kernel)

    def test_deltas_match_at_1792_fingers(self):
        design = build_design(CircuitSpec(name="s1792", finger_count=1792), seed=0)
        kernel = ArrayExchangeKernel(design, assign_design(DFAAssigner(), design))
        assert set(self.assert_screen_exact(kernel)) == {1}
        random_walk(kernel, 4000, seed=1)
        assert kernel._max_delta > 0
        # a peak run lowered by the swap: the "count at max" branch ran
        assert min(self.assert_screen_exact(kernel)) < 0

    @pytest.mark.parametrize("tiers,index", [(1, 1), (4, 2), (1, 5)])
    @pytest.mark.parametrize("split", [False, True])
    def test_demand_deltas_match_measured_swaps(self, tiers, index, split):
        design = circuit_design(index, tiers)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(
            design, baseline, split_networks=split, demand=ramp_demand
        )
        self.assert_screen_exact(kernel)
        random_walk(kernel, 300, seed=index)
        self.assert_screen_exact(kernel)

    def test_lone_pad_deltas_match_measured_swaps(self):
        """One supply pad: its single gap spans the ring and its midpoint
        moves a whole slot, the one case the demand prices apart."""
        design = lone_pad_design()
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(
            design, baseline, net_type=None, demand=ramp_demand
        )
        assert kernel._pad_count == [1]
        self.assert_screen_exact(kernel)
        random_walk(kernel, 200, seed=2)
        self.assert_screen_exact(kernel)

    @pytest.mark.parametrize("tiers,index", ALL_CONFIGS)
    def test_greedy_matches_exact_object_loop(self, tiers, index):
        design = circuit_design(index, tiers)
        starts = [(assign_design(DFAAssigner(), design), None)]
        if index <= 4:  # circuit 5's exact object polish alone takes ~5 s
            starts.append((
                assign_design(RandomAssigner(), design, seed=3),
                CostWeights(density=0.0),
            ))
        for baseline, weights in starts:
            exchanger = GreedyExchanger(design, weights=weights)
            kernel_result = exchanger.run(baseline)
            object_result = exchanger._run_object(baseline, 0)
            assert {s: a.order for s, a in kernel_result.after.items()} == {
                s: a.order for s, a in object_result.after.items()
            }

    @pytest.mark.parametrize("tiers,index", ALL_CONFIGS + [(1, 1792)])
    @pytest.mark.parametrize("weights", [None, CostWeights(density=0.0)])
    @pytest.mark.parametrize(
        "assigner", [DFAAssigner(), RandomAssigner()], ids=["dfa", "random"]
    )
    def test_polish_matches_per_slot_loop(self, tiers, index, weights, assigner):
        design = (
            circuit_design(index, tiers) if index <= 5
            else build_design(CircuitSpec(name="s", finger_count=index), seed=0)
        )
        baseline = assign_design(assigner, design, seed=3)
        screened = ArrayExchangeKernel(design, baseline, weights=weights)
        reference = ArrayExchangeKernel(design, baseline, weights=weights)
        screened.polish(50)
        reference_polish(reference, 50)
        assert screened.orders() == reference.orders()
        assert screened.cost() == reference.cost()
        if weights is not None and isinstance(assigner, RandomAssigner):
            moved = sum(
                a != b
                for side, order in screened.orders().items()
                for a, b in zip(order, baseline[side].order)
            )
            assert moved > (400 if index == 1792 else 0)  # re-screens ran

    def test_polish_at_dfa_start_swaps_nothing(self):
        design = build_design(CircuitSpec(name="s16k", finger_count=16384), seed=0)
        kernel = ArrayExchangeKernel(design, assign_design(DFAAssigner(), design))
        before = kernel.swap_count
        kernel.polish(20)
        assert kernel.swap_count == before

    @pytest.mark.parametrize("tiers", [1, 4])
    def test_out_of_range_tier_rejected(self, tiers):
        design = circuit_design(1, tiers)
        baseline = assign_design(DFAAssigner(), design)
        net = next(iter(design.quadrants[design.sides[0]].netlist))
        object.__setattr__(net, "tier", tiers + 1)
        with pytest.raises(ExchangeError, match=f"outside 1..{tiers}"):
            ArrayExchangeKernel(design, baseline)


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

    def test_demand_runs_on_the_kernel(self, monkeypatch):
        calls = []
        original = FingerPadExchanger._run_array

        def counting(self, assignments, seed):
            calls.append(self.demand)
            return original(self, assignments, seed)

        monkeypatch.setattr(FingerPadExchanger, "_run_array", counting)
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)
        FingerPadExchanger(design, params=FAST_SA, demand=ramp_demand).run(
            baseline, seed=1
        )
        assert calls == [ramp_demand]


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
        cost = ExchangeCost(design, baseline)
        generator = MoveGenerator(design, working)
        rng = random.Random(0)
        start = time.perf_counter()
        for __ in range(moves):
            move = generator.propose(rng)
            if move is not None:
                generator.apply(move)
                cost.total(working)
        object_time = time.perf_counter() - start

        assert array_time < object_time


def lone_pad_design():
    """16 fingers with one supply pad (POWER) on the whole ring."""
    return build_design(
        CircuitSpec(name="lone", finger_count=16, supply_fraction=0.05), seed=0
    )


class TestDemand:
    """The demand-weighted IR proxy: one weight table, kernel vs reference."""

    @pytest.mark.parametrize(
        "net_type,split",
        [(None, False), (NetType.POWER, False), (None, True)],
        ids=["supply", "power", "split"],
    )
    def test_realchip_parity_with_object_loop(self, net_type, split):
        """Fig.-6 chip, drop-map demand: the kernel and the from-scratch
        object loop walk the same trace to the same orders and terms."""
        from repro.circuits import build_realchip, drop_map_demand
        from repro.circuits.realchip import hotspot_current_map, realchip_grid_config
        from repro.power import FDSolver

        design = build_realchip(seed=2009)
        config = realchip_grid_config(size=24)
        solver = FDSolver(config, current_map=hotspot_current_map(config))
        baseline = assign_design(DFAAssigner(), design)
        demand = drop_map_demand(design, baseline, config, solver)
        exchanger = FingerPadExchanger(
            design,
            weights=CostWeights(ir=1.0, density=0.05, bonding=0.0),
            params=FAST_SA,
            net_type=net_type,
            split_networks=split,
            demand=demand,
        )
        kernel = exchanger.run(baseline, seed=2009)
        exact = exchanger._run_object(baseline, seed=2009)
        assert {s: a.order for s, a in kernel.after.items()} == {
            s: a.order for s, a in exact.after.items()
        }
        for field in ("proposed", "accepted", "accepted_uphill"):
            assert getattr(kernel.stats, field) == getattr(exact.stats, field)
        for before_after in ("cost_breakdown_before", "cost_breakdown_after"):
            expected = getattr(exact, before_after)
            reported = getattr(kernel, before_after)
            assert set(reported) == set(expected)
            for key, value in expected.items():
                assert reported[key] == pytest.approx(value, rel=1e-9, abs=1e-9)

    def test_table_is_max_normalized_20_bit(self):
        from repro.power import demand_weights

        table = demand_weights(lambda t: 1.0 + t, 4)
        assert len(table) == 8
        assert max(table) == 1 << 20
        assert table[0] == round(1.0 / 1.875 * (1 << 20))
        assert demand_weights(None, 4) == [1] * 8

    @pytest.mark.parametrize(
        "demand,error",
        [
            (lambda t: float("nan") if t > 0.5 else 1.0, NonFiniteCostError),
            (lambda t: float("inf"), NonFiniteCostError),
            (lambda t: -1.0 if t < 0.25 else 1.0, PowerModelError),
            (lambda t: 0.0, PowerModelError),
            # weight only at m = 0, which no baseline gap midpoint reaches
            (lambda t: 1.0 if t < 0.003 else 0.0, PowerModelError),
        ],
        ids=["nan", "inf", "negative", "all-zero", "zero-at-every-gap"],
    )
    def test_bad_demand_raises_typed_error_at_build(self, demand, error):
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)
        with pytest.raises(error):
            ArrayExchangeKernel(design, baseline, demand=demand)
        with pytest.raises(error):
            ExchangeCost(design, baseline, demand=demand)

    def test_uniform_demand_matches_no_demand(self):
        """A constant demand weighs every gap alike: the same anneal."""
        design = circuit_design(2, 4)
        baseline = assign_design(DFAAssigner(), design)
        plain = FingerPadExchanger(design, params=FAST_SA).run(baseline, seed=3)
        flat = FingerPadExchanger(
            design, params=FAST_SA, demand=lambda t: 2.5
        ).run(baseline, seed=3)
        assert plain.stats.cost_trace == flat.stats.cost_trace
        assert {s: a.order for s, a in plain.after.items()} == {
            s: a.order for s, a in flat.after.items()
        }

    @pytest.mark.parametrize("split", [False, True])
    def test_incremental_state_matches_rebuild(self, split):
        design = circuit_design(3, 4)
        baseline = assign_design(DFAAssigner(), design)
        walked = ArrayExchangeKernel(
            design, baseline, split_networks=split, demand=ramp_demand
        )
        random_walk(walked, 2000, seed=3)
        fresh = ArrayExchangeKernel(
            design, baseline, split_networks=split, demand=ramp_demand
        )
        fresh.restore(walked.snapshot())
        assert walked._sumsq == fresh._sumsq
        assert walked.cost() == fresh.cost()

    def test_lone_pad_walk_matches_exact(self):
        design = lone_pad_design()
        baseline = assign_design(RandomAssigner(), design, seed=1)
        kernel = ArrayExchangeKernel(
            design, baseline, net_type=None, demand=ramp_demand
        )
        exact = ExchangeCost(design, baseline, net_type=None, demand=ramp_demand)
        current = {side: a.copy() for side, a in baseline.items()}
        sides = list(design.sides)
        rng = random.Random(5)
        costs = set()
        for __ in range(200):
            move = kernel.propose(rng)
            if move is None:
                continue
            kernel.apply(move)
            current[sides[move[0]]].swap_slots(move[1], move[1] + 1)
            assert kernel.cost() == pytest.approx(exact.total(current), rel=1e-9)
            costs.add(kernel.breakdown()["ir"])
        assert len(costs) > 1  # the lone pad's weight moved with it

    def test_checkpointed_demand_run_resumes_bit_identically(self, tmp_path):
        from repro.exchange import SACheckpointer
        from repro.exchange.checkpoint import SimulatedCrash

        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)

        def exchanger(demand, checkpoint=None):
            return FingerPadExchanger(
                design, params=FAST_SA, demand=demand, checkpoint=checkpoint
            )

        reference = exchanger(ramp_demand).run(baseline, seed=4)
        path = tmp_path / "sa.ckpt"
        with pytest.raises(SimulatedCrash):
            exchanger(
                ramp_demand,
                SACheckpointer(path, interval=300, durable=False,
                               interrupt_after_saves=1),
            ).run(baseline, seed=4)
        assert path.exists()
        resumed = exchanger(
            ramp_demand, SACheckpointer(path, interval=300, durable=False)
        ).run(baseline, seed=4)
        assert resumed.stats.cost_trace == reference.stats.cost_trace
        assert resumed.stats.accepted == reference.stats.accepted
        assert resumed.stats.final_cost == reference.stats.final_cost
        assert {s: a.order for s, a in resumed.after.items()} == {
            s: a.order for s, a in reference.after.items()
        }

        def run_key(demand):
            chosen = exchanger(demand)
            kernel = ArrayExchangeKernel(design, baseline, demand=demand)
            return chosen._checkpoint_run_key(kernel, 4)

        assert run_key(ramp_demand) == run_key(ramp_demand)
        assert run_key(ramp_demand) != run_key(lambda t: 1.0 + t)
        assert run_key(ramp_demand) != run_key(None)


def test_numpy_is_available():
    """The array backend is part of this repo's supported surface."""
    assert np is not None
