"""Staged pipeline protocols, kernel parity and deprecation shims (PR 8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.assign import (
    Assignment,
    DFAAssigner,
    IFAAssigner,
    RandomAssigner,
    assign_design,
    assign_quadrant,
)
from repro.circuits import TABLE1_SPECS, build_design, fig5_quadrant, fig13_quadrant
from repro.errors import AssignmentError, ExchangeError, PowerModelError
from repro.kernels import (
    GridFactorization,
    dfa_order,
    factorize_grid,
    ifa_order,
    max_density_of_order,
    resolve_stage_backend,
)
from repro.power import FDSolver, IRDropAnalyzer, PowerGridConfig
from repro.routing import (
    MonotonicDensityEstimator,
    max_density,
    max_density_of_design,
)


def all_quadrants():
    for spec in TABLE1_SPECS[:3]:
        design = build_design(spec)
        yield from (q for _side, q in design)
    yield fig5_quadrant()
    yield fig13_quadrant()


class TestAssignKernelParity:
    def test_ifa_orders_identical(self):
        for quadrant in all_quadrants():
            assert ifa_order(quadrant) == IFAAssigner().assign(quadrant).order

    @pytest.mark.parametrize("cut_line_n", [1, 2, 3])
    def test_dfa_orders_identical(self, cut_line_n):
        for quadrant in all_quadrants():
            expected = DFAAssigner(cut_line_n=cut_line_n).assign(quadrant)
            assert dfa_order(quadrant, cut_line_n=cut_line_n) == expected.order

    def test_dfa_rejects_bad_cut_line(self):
        with pytest.raises(AssignmentError):
            dfa_order(fig5_quadrant(), cut_line_n=0)

    def test_staged_backends_agree(self, small_design):
        for assigner in (IFAAssigner(), DFAAssigner(cut_line_n=2)):
            via_object = assign_design(assigner, small_design, backend="object")
            via_array = assign_design(assigner, small_design, backend="array")
            assert {s: a.order for s, a in via_object.items()} == {
                s: a.order for s, a in via_array.items()
            }

    def test_array_backend_skips_custom_assigners(self, small_design):
        # Randomized/custom strategies have no kernel twin; the array
        # backend must still run their own assign with staged seeds.
        via_array = assign_design(
            RandomAssigner(), small_design, seed=3, backend="array"
        )
        via_object = assign_design(
            RandomAssigner(), small_design, seed=3, backend="object"
        )
        assert {s: a.order for s, a in via_array.items()} == {
            s: a.order for s, a in via_object.items()
        }

    def test_assign_quadrant_array_matches_object(self):
        quadrant = fig13_quadrant()
        array = assign_quadrant(DFAAssigner(), quadrant, backend="array")
        obj = assign_quadrant(DFAAssigner(), quadrant, backend="object")
        assert array.order == obj.order
        assert isinstance(array, Assignment)


class TestDensityKernelParity:
    def test_counts_identical_across_assigners(self, small_design):
        for assigner in (DFAAssigner(), IFAAssigner(), RandomAssigner()):
            assignments = assign_design(assigner, small_design, seed=1)
            for assignment in assignments.values():
                assert max_density_of_order(
                    assignment.quadrant, assignment.order
                ) == max_density(assignment, backend="object")

    def test_design_level_backend_keyword(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        assert max_density_of_design(
            assignments, backend="array"
        ) == max_density_of_design(assignments, backend="object")

    def test_estimator_class(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        object_est = MonotonicDensityEstimator(backend="object")
        array_est = MonotonicDensityEstimator(backend="array")
        assert object_est.max_density_of_design(
            assignments
        ) == array_est.max_density_of_design(assignments)


class TestStageBackendResolver:
    def test_auto_threshold(self):
        from repro.kernels import ARRAY_BACKEND_THRESHOLD

        assert resolve_stage_backend("auto", ARRAY_BACKEND_THRESHOLD) == "array"
        assert resolve_stage_backend("auto", ARRAY_BACKEND_THRESHOLD - 1) == "object"

    def test_explicit_spellings(self):
        assert resolve_stage_backend("object", 10**6) == "object"
        assert resolve_stage_backend("array", 1) == "array"
        # "exact" only means something to the exchange cost machinery.
        assert resolve_stage_backend("exact", 10**6) == "object"

    def test_unknown_rejected(self):
        with pytest.raises(ExchangeError):
            resolve_stage_backend("gpu", 100)


class TestIRSolveKernel:
    GRID = PowerGridConfig(size=16)
    PADS = [(0, 0), (15, 7), (3, 15), (9, 0)]

    def test_matches_object_solve(self):
        reference = FDSolver(self.GRID)._solve_object(self.PADS)
        resolved = factorize_grid(self.GRID, self.PADS).solve()
        np.testing.assert_allclose(
            resolved.voltage, reference.voltage, rtol=1e-9, atol=1e-12
        )
        assert resolved.pad_nodes == reference.pad_nodes

    def test_resolve_many_current_maps(self):
        factorization = factorize_grid(self.GRID, self.PADS)
        rng = np.random.default_rng(7)
        for _ in range(3):
            current = np.abs(rng.normal(1e-4, 3e-5, (16, 16)))
            reference = FDSolver(self.GRID, current_map=current)._solve_object(
                self.PADS
            )
            np.testing.assert_allclose(
                factorization.solve(current).voltage,
                reference.voltage,
                rtol=1e-9,
                atol=1e-12,
            )

    def test_solver_factorization_cache(self):
        solver = FDSolver(self.GRID)
        assert solver.factorize(self.PADS) is solver.factorize(
            list(reversed(self.PADS))
        )
        solver.FACTOR_CACHE_SIZE  # documented knob exists

    def test_all_pads_grid(self):
        config = PowerGridConfig(size=2)
        nodes = [(x, y) for x in range(2) for y in range(2)]
        result = factorize_grid(config, nodes).solve()
        assert result.max_drop == 0.0

    def test_validation_parity_with_object_path(self):
        with pytest.raises(PowerModelError):
            factorize_grid(self.GRID, [])
        with pytest.raises(PowerModelError):
            factorize_grid(self.GRID, [(99, 0)])
        with pytest.raises(PowerModelError):
            factorize_grid(self.GRID, self.PADS).solve(np.ones((3, 3)))

    @given(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_cached_resolve_matches_fresh_solve(self, pads, seed):
        """ISSUE property: cached re-solve == fresh FDSolver solve @ 1e-9."""
        config = PowerGridConfig(size=10)
        pads = sorted(pads)
        solver = FDSolver(config)
        factorization = solver.factorize(pads)
        current = np.abs(
            np.random.default_rng(seed).normal(1e-4, 4e-5, (10, 10))
        )
        for current_map in (None, current):
            fresh = FDSolver(config, current_map=current_map)._solve_object(pads)
            again = factorization.solve(current_map)
            assert abs(again.max_drop - fresh.max_drop) <= 1e-9 * max(
                1.0, abs(fresh.max_drop)
            )
            np.testing.assert_allclose(
                again.voltage, fresh.voltage, rtol=1e-9, atol=1e-12
            )


class TestProtocols:
    def test_stock_implementations_conform(self):
        assert isinstance(DFAAssigner(), api.Assigner)
        assert isinstance(IFAAssigner(), api.Assigner)
        assert isinstance(RandomAssigner(), api.Assigner)
        assert isinstance(MonotonicDensityEstimator(), api.DensityEstimator)
        assert isinstance(FDSolver(PowerGridConfig(size=8)), api.IRSolver)
        fact = factorize_grid(PowerGridConfig(size=8), [(0, 0)])
        assert isinstance(fact, api.Factorization)

    def test_analyzer_is_an_ir_solver(self, small_design):
        analyzer = IRDropAnalyzer(small_design)
        assert isinstance(analyzer, api.IRSolver)
        assignments = assign_design(DFAAssigner(), small_design)
        factorization = analyzer.factorize(assignments)
        assert isinstance(factorization, GridFactorization)
        # repeat factorizations of the same pad set are served from cache
        assert analyzer.factorize(assignments) is factorization

    def test_duck_typed_assigner_accepted_by_facade(self, small_design):
        class Reversed:
            name = "Reversed"

            def assign(self, quadrant, seed=None):
                return Assignment(
                    quadrant, list(reversed(IFAAssigner().assign(quadrant).order))
                )

        with pytest.raises(Exception):
            # reversed orders are illegal; the point is the protocol check
            # accepted the duck-typed instance and actually ran it.
            api.assign(small_design, method=Reversed(), verify="strict")

    def test_api_backend_keywords(self, small_design):
        array = api.assign(small_design, seed=0, backend="array")
        obj = api.assign(small_design, seed=0, backend="object")
        assert array.orders() == obj.orders()
        measured = api.evaluate(
            small_design, obj.assignments, backend="array", with_ir=False
        )
        assert measured.max_density == api.evaluate(
            small_design, obj.assignments, backend="object", with_ir=False
        ).max_density


class TestDeprecationShims:
    def test_assign_design_method_warns_and_matches(self, small_design):
        staged = assign_design(DFAAssigner(), small_design, seed=2)
        with pytest.warns(DeprecationWarning, match="assign_design"):
            legacy = DFAAssigner().assign_design(small_design, seed=2)
        assert {s: a.order for s, a in staged.items()} == {
            s: a.order for s, a in legacy.items()
        }

    def test_fdsolver_solve_warns_and_matches(self):
        config = PowerGridConfig(size=12)
        pads = [(0, 0), (11, 11)]
        fresh = FDSolver(config).factorize(pads).solve()
        with pytest.warns(DeprecationWarning, match="factorize"):
            legacy = FDSolver(config).solve(pads)
        np.testing.assert_allclose(
            legacy.voltage, fresh.voltage, rtol=1e-9, atol=1e-12
        )

    def test_analyzer_solve_warns_and_matches(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        analyzer = IRDropAnalyzer(small_design)
        fresh = analyzer.factorize(assignments).solve()
        with pytest.warns(DeprecationWarning, match="factorize"):
            legacy = analyzer.solve(assignments)
        assert legacy.max_drop == pytest.approx(fresh.max_drop, rel=1e-12)
