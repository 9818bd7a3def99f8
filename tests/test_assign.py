"""Unit tests for the assignment algorithms, including the paper's examples."""

import hashlib
import json
import random
from repro.assign import assign_design
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import (
    Assignment,
    BestOfRandomAssigner,
    DFAAssigner,
    IFAAssigner,
    RandomAssigner,
    best_of_random,
    check_legal,
    exchange_range,
    is_legal,
    row_violations,
    swap_is_legal,
)
from repro.circuits import (
    CircuitSpec,
    FIG5_DFA_ORDER,
    FIG5_RANDOM_ORDER,
    FIG10_IFA_ORDER,
    FIG12_DI_TRACE,
    build_design,
    fig13_quadrant,
    fig5_quadrant,
    table1_circuit,
)
from repro.errors import AssignmentError, LegalityError
from repro.package import quadrant_from_rows
from repro.routing import max_density


def random_trapezoid(draw_rows):
    """Build a quadrant from a hypothesis-drawn list of row sizes."""
    next_id = iter(range(10_000))
    rows = [[next(next_id) for __ in range(size)] for size in draw_rows]
    return quadrant_from_rows(rows)


row_sizes = st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5)


class TestAssignment:
    def test_permutation_enforced(self, fig5):
        with pytest.raises(AssignmentError):
            Assignment(fig5, [1, 2, 3])
        with pytest.raises(AssignmentError):
            Assignment(fig5, [10] * 12)

    def test_slot_lookup(self, fig5):
        assignment = Assignment(fig5, FIG5_RANDOM_ORDER)
        assert assignment.net_at(1) == 10
        assert assignment.slot_of(10) == 1
        assert assignment.slot_of(0) == 12
        with pytest.raises(AssignmentError):
            assignment.net_at(13)
        with pytest.raises(AssignmentError):
            assignment.slot_of(99)

    def test_swap(self, fig5):
        assignment = Assignment(fig5, FIG5_RANDOM_ORDER)
        assignment.swap_slots(1, 2)
        assert assignment.net_at(1) == 1
        assert assignment.slot_of(10) == 2

    def test_copy_is_independent(self, fig5):
        assignment = Assignment(fig5, FIG5_RANDOM_ORDER)
        copy = assignment.copy()
        copy.swap_slots(1, 2)
        assert assignment.net_at(1) == 10
        assert assignment != copy

    def test_finger_position(self, fig5):
        assignment = Assignment(fig5, FIG5_RANDOM_ORDER)
        left = assignment.finger_position(10)
        right = assignment.finger_position(0)
        assert left.x < right.x


class TestLegality:
    def test_paper_orders_are_legal(self, fig5):
        for order in (FIG5_RANDOM_ORDER, FIG5_DFA_ORDER, FIG10_IFA_ORDER):
            assert is_legal(Assignment(fig5, order))

    def test_violation_detected(self, fig5):
        order = list(FIG5_DFA_ORDER)
        # put net 9 left of net 6 (both on the highest row, 6 before 9)
        i6, i9 = order.index(6), order.index(9)
        order[i6], order[i9] = order[i9], order[i6]
        assignment = Assignment(fig5, order)
        assert not is_legal(assignment)
        assert row_violations(assignment)
        with pytest.raises(LegalityError):
            check_legal(assignment)

    def test_check_legal_agrees_with_row_violations(self, fig5):
        legal = Assignment(fig5, FIG5_DFA_ORDER)
        check_legal(legal)
        # break every same-row neighbour pair of a legal order in turn
        for row in range(1, fig5.row_count + 1):
            nets = fig5.row_nets(row)
            for left, right in zip(nets, nets[1:]):
                broken = legal.copy()
                broken.swap_slots(broken.slot_of(left), broken.slot_of(right))
                violations = row_violations(broken)
                first_row, first_left, __ = violations[0]
                with pytest.raises(LegalityError) as excinfo:
                    check_legal(broken)
                message = str(excinfo.value)
                assert f"on row {first_row}: net {first_left} " in message
                assert f"{len(violations)} violation(s) total" in message
        rng = random.Random(0)
        for _ in range(200):
            order = [net.id for net in fig5.netlist]
            rng.shuffle(order)
            assignment = Assignment(fig5, order)
            try:
                check_legal(assignment)
                raised = False
            except LegalityError:
                raised = True
            assert raised == bool(row_violations(assignment))

    def test_swap_is_legal_same_row(self, fig5):
        # order ..., 6, 9 adjacent would be same-row: craft one
        order = [10, 1, 11, 2, 3, 6, 9, 4, 5, 7, 8, 0]
        assignment = Assignment(fig5, order)
        assert is_legal(assignment)
        assert not swap_is_legal(assignment, 6, 7)  # 6 and 9 share row 3

    def test_swap_is_legal_needs_adjacency(self, fig5):
        assignment = Assignment(fig5, FIG5_DFA_ORDER)
        with pytest.raises(LegalityError):
            swap_is_legal(assignment, 1, 3)

    def test_exchange_range_matches_paper(self, fig5):
        # Paper: in Fig. 5(B), net 6 at F5 may move between F3 and F7.
        assignment = Assignment(fig5, FIG5_DFA_ORDER)
        assert exchange_range(assignment, 6) == (3, 7)

    def test_exchange_range_boundary_nets(self, fig5):
        assignment = Assignment(fig5, FIG5_DFA_ORDER)
        lo, hi = exchange_range(assignment, 10)  # first net of row 1
        assert lo == 1


class TestIFA:
    def test_reproduces_fig10(self, fig5):
        assignment = IFAAssigner().assign(fig5)
        assert assignment.order == FIG10_IFA_ORDER

    def test_fig10_density_is_2(self, fig5):
        assert max_density(IFAAssigner().assign(fig5)) == 2

    def test_single_row(self):
        quadrant = quadrant_from_rows([[3, 1, 2]])
        assignment = IFAAssigner().assign(quadrant)
        assert assignment.order == [3, 1, 2]

    @given(row_sizes)
    @settings(max_examples=50, deadline=None)
    def test_always_legal(self, sizes):
        quadrant = random_trapezoid(sizes)
        assert is_legal(IFAAssigner().assign(quadrant))


class TestDFA:
    def test_reproduces_fig12(self, fig5):
        assigner = DFAAssigner()
        assignment = assigner.assign(fig5)
        assert assignment.order == FIG5_DFA_ORDER

    def test_di_trace_matches_paper(self, fig5):
        trace = DFAAssigner().density_interval_trace(fig5)
        assert trace == pytest.approx(FIG12_DI_TRACE)

    def test_fig5b_density_is_2(self, fig5):
        assert max_density(DFAAssigner().assign(fig5)) == 2

    def test_cut_line_parameter(self, fig5):
        wide = DFAAssigner(cut_line_n=3).assign(fig5)
        assert is_legal(wide)
        with pytest.raises(AssignmentError):
            DFAAssigner(cut_line_n=0)

    def test_beats_or_matches_ifa_on_fig13(self):
        quadrant = fig13_quadrant()
        ifa = max_density(IFAAssigner().assign(quadrant))
        dfa = max_density(DFAAssigner().assign(quadrant))
        assert dfa <= ifa

    @given(row_sizes)
    @settings(max_examples=50, deadline=None)
    def test_always_legal(self, sizes):
        quadrant = random_trapezoid(sizes)
        assert is_legal(DFAAssigner().assign(quadrant))

    @given(row_sizes, st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_cut_line_variants_stay_legal(self, sizes, n):
        quadrant = random_trapezoid(sizes)
        assert is_legal(DFAAssigner(cut_line_n=n).assign(quadrant))


class TestRandomAssigner:
    def test_deterministic_with_seed(self, fig5):
        a = RandomAssigner().assign(fig5, seed=11)
        b = RandomAssigner().assign(fig5, seed=11)
        assert a.order == b.order

    def test_different_seeds_differ(self, fig5):
        orders = {tuple(RandomAssigner().assign(fig5, seed=s).order) for s in range(8)}
        assert len(orders) > 1

    @pytest.mark.parametrize(
        "spec, seed, expected",
        [
            (
                table1_circuit(2),
                3,
                "29274856b69fce3eee08f6b9c69e96a933c5f7e009c255bc3a9de2bbf188f492",
            ),
            (
                CircuitSpec(name="synth4096", finger_count=4096),
                11,
                "2f81ffebfeca48a109d09d4edb5c1598f2bf44c8e0e6861d345141bf051c1b34",
            ),
        ],
        ids=["circuit2", "synth4096"],
    )
    def test_seeded_orders_are_pinned(self, spec, seed, expected):
        """The seeded rng stream picks the same orders as it always has."""
        design = build_design(spec, seed=0)
        assignments = assign_design(RandomAssigner(), design, seed=seed)
        orders = sorted((side.value, list(a.order)) for side, a in assignments.items())
        digest = hashlib.sha256(json.dumps(orders).encode()).hexdigest()
        assert digest == expected

    @given(row_sizes, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_always_legal(self, sizes, seed):
        quadrant = random_trapezoid(sizes)
        assert is_legal(RandomAssigner().assign(quadrant, seed=seed))

    def test_best_of_random_minimizes(self, fig5):
        best = best_of_random(fig5, trials=20, objective=max_density, seed=0)
        single = RandomAssigner().assign(fig5, seed=0)
        assert max_density(best) <= max_density(single)

    def test_best_of_random_assigner(self, fig5):
        assigner = BestOfRandomAssigner(trials=5)
        assert is_legal(assigner.assign(fig5, seed=0))
        with pytest.raises(ValueError):
            BestOfRandomAssigner(trials=0)


class TestAssignDesign:
    def test_covers_all_quadrants(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        assert set(assignments) == set(small_design.quadrants)
        for side, assignment in assignments.items():
            assert assignment.quadrant is small_design.quadrants[side]
            assert is_legal(assignment)
