"""Staged pipeline protocols and kernel parity with the object references."""

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
from repro.circuits import (
    TABLE1_SPECS,
    build_design,
    fig5_quadrant,
    fig13_quadrant,
    table1_circuit,
)
from repro.errors import AssignmentError, PowerModelError
from repro.exchange import SAParams
from repro.kernels import (
    GridFactorization,
    dfa_order,
    factorize_grid,
    ifa_order,
    max_density_of_order,
)
from repro.power import FDSolver, IRDropAnalyzer, PowerGridConfig
from repro.routing import (
    MonotonicDensityEstimator,
    density_map,
    max_density,
    max_density_of_design,
)


def reference_orders(assigner, design, seed=None):
    """The object assigner's own orders, quadrant by quadrant, staged seeds."""
    return {
        side: assigner.assign(
            quadrant, seed=None if seed is None else seed + index
        ).order
        for index, (side, quadrant) in enumerate(design)
    }


def reference_density(assignments):
    """The object density walk over a design's assignments."""
    return max(density_map(a).max_density for a in assignments.values())


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
        """Staged IFA/DFA (the kernels) == the assigners' own ``assign``.

        Every Table-1 circuit at psi 1 and 4, all below the 512 nets at
        which the kernels used to take over, plus a non-default cut line.
        """
        designs = [small_design] + [
            build_design(table1_circuit(index, tier_count=tiers), seed=0)
            for tiers in (1, 4)
            for index in range(1, 6)
        ]
        for design in designs:
            for assigner in (IFAAssigner(), DFAAssigner(), DFAAssigner(cut_line_n=2)):
                staged = assign_design(assigner, design)
                assert {s: a.order for s, a in staged.items()} == reference_orders(
                    assigner, design
                )
                assert max_density_of_design(staged) == reference_density(staged)

    def test_array_backend_skips_custom_assigners(self, small_design):
        # Randomized/custom strategies have no kernel twin; the staged
        # walk must still run their own assign with staged seeds.
        staged = assign_design(RandomAssigner(), small_design, seed=3)
        assert {s: a.order for s, a in staged.items()} == reference_orders(
            RandomAssigner(), small_design, seed=3
        )

    def test_assign_quadrant_array_matches_object(self):
        quadrant = fig13_quadrant()
        array = assign_quadrant(DFAAssigner(), quadrant)
        assert array.order == DFAAssigner().assign(quadrant).order
        assert isinstance(array, Assignment)


class TestDensityKernelParity:
    def test_counts_identical_across_assigners(self, small_design):
        for assigner in (DFAAssigner(), IFAAssigner(), RandomAssigner()):
            assignments = assign_design(assigner, small_design, seed=1)
            for assignment in assignments.values():
                assert max_density_of_order(assignment) == density_map(
                    assignment
                ).max_density
                assert max_density(assignment) == density_map(
                    assignment
                ).max_density

    def test_design_level_backend_keyword(self, small_design):
        """One path, no keyword: the kernel equals the object density walk."""
        assignments = assign_design(DFAAssigner(), small_design)
        assert max_density_of_design(assignments) == reference_density(assignments)
        with pytest.raises(TypeError):
            max_density_of_design(assignments, backend="object")
        with pytest.raises(TypeError):
            MonotonicDensityEstimator(backend="object")

    def test_estimator_class(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        estimator = MonotonicDensityEstimator()
        assert estimator.max_density_of_design(assignments) == reference_density(
            assignments
        )
        for assignment in assignments.values():
            assert (
                estimator.density_map(assignment).max_density
                == estimator.max_density(assignment)
            )


class TestStageBackendResolver:
    def test_unknown_rejected(self, small_design):
        """The staged walk takes no ``backend=``; the kernels always run."""
        quadrant = next(iter(small_design.quadrants.values()))
        with pytest.raises(TypeError):
            assign_design(DFAAssigner(), small_design, backend="array")
        with pytest.raises(TypeError):
            assign_quadrant(DFAAssigner(), quadrant, backend="array")


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
        """``api.assign`` and ``api.evaluate`` take no ``backend=``."""
        with pytest.raises(TypeError):
            api.assign(small_design, seed=0, backend="array")
        assigned = api.assign(small_design, seed=0)
        with pytest.raises(TypeError):
            api.evaluate(small_design, assigned.assignments, backend="array")

    def test_api_runs_the_kernels_below_the_old_threshold(
        self, small_design, monkeypatch
    ):
        """Circuit 1 (96 nets) assigns and measures on the kernels.

        The kernels used to take over only at 512 nets; now ``api.run``
        and ``api.evaluate`` reach them at every size, and their orders
        and densities equal the object references.
        """
        import repro.kernels as kernels

        calls = {"dfa_order": 0, "max_density_of_order": 0}
        for name in calls:
            original = getattr(kernels, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(kernels, name, counting)
        assert small_design.total_net_count < 512

        fast = SAParams(initial_temp=0.03, final_temp=1e-3, moves_per_temp=30)
        run = api.run(small_design, sa_params=fast, seed=0, grid=16)
        assert calls["dfa_order"] == 4
        assert calls["max_density_of_order"] == 8  # 4 quadrants, measured twice
        flow = run.result
        assert {
            s: a.order for s, a in flow.assignments_initial.items()
        } == reference_orders(DFAAssigner(), small_design)
        assert flow.metrics_initial.max_density == reference_density(
            flow.assignments_initial
        )
        assert flow.metrics_final.max_density == reference_density(
            flow.assignments_final
        )

        calls["max_density_of_order"] = 0
        for method in ("ifa", "dfa", "random"):
            assigned = api.assign(small_design, method, seed=0)
            measured = api.evaluate(
                small_design, assigned.assignments, with_ir=False
            )
            assert measured.max_density == reference_density(assigned.assignments)
        assert calls["max_density_of_order"] == 12
