"""Tests for SPICE export and the reference cross-validation of the FD solver."""

import numpy as np
import pytest

from repro.errors import PowerModelError
from repro.power import FDSolver, PowerGridConfig
from repro.power.spice import export_spice


class TestExport:
    def test_deck_structure(self, tmp_path):
        config = PowerGridConfig(size=4, vdd=1.2, j0=1e-5)
        path = tmp_path / "grid.sp"
        deck = export_spice(config, [(0, 0)], path=path)
        assert path.read_text() == deck
        lines = deck.splitlines()
        assert lines[0].startswith("*")
        assert deck.rstrip().endswith(".end")
        # 2 * g * (g-1) resistors for a g x g grid
        resistors = [line for line in lines if line.startswith("R")]
        assert len(resistors) == 2 * 4 * 3
        sources = [line for line in lines if line.startswith("V")]
        assert sources == ["V1 n_0_0 0 DC 1.2"]
        currents = [line for line in lines if line.startswith("I")]
        assert len(currents) == 16

    def test_requires_pads(self):
        with pytest.raises(PowerModelError):
            export_spice(PowerGridConfig(size=4), [])

    def test_pad_bounds_checked(self):
        with pytest.raises(PowerModelError):
            export_spice(PowerGridConfig(size=4), [(9, 9)])

    def test_zero_current_nodes_skipped(self):
        config = PowerGridConfig(size=3, j0=0.0)
        deck = export_spice(config, [(0, 0)])
        assert not [line for line in deck.splitlines() if line.startswith("I")]

    def test_current_map_embedded(self):
        config = PowerGridConfig(size=3, j0=1e-5)
        current = np.zeros((3, 3))
        current[1, 1] = 5e-4
        deck = export_spice(config, [(0, 0)], current_map=current)
        currents = [line for line in deck.splitlines() if line.startswith("I")]
        assert currents == ["I1 n_1_1 0 DC 0.0005"]


class TestDenseCrossValidation:
    """The factorized solve against ``FDSolver._solve_object``, the reference
    that assembles the same nodal system in a Python loop."""

    def test_matches_sparse_solver_uniform(self):
        config = PowerGridConfig(size=12, j0=2e-5)
        pads = [(0, 0), (11, 5), (3, 11)]
        sparse = FDSolver(config).factorize(pads).solve()
        reference = FDSolver(config)._solve_object(pads)
        assert np.allclose(sparse.voltage, reference.voltage, atol=1e-10)
        assert sparse.max_drop == pytest.approx(reference.max_drop, abs=1e-12)

    def test_matches_sparse_solver_hotspot(self):
        config = PowerGridConfig(size=10)
        current = np.full((10, 10), 1e-5)
        current[6:9, 6:9] = 2e-4
        pads = [(0, 0), (9, 9)]
        sparse = FDSolver(config, current_map=current).factorize(pads).solve()
        reference = FDSolver(config, current_map=current)._solve_object(pads)
        assert np.allclose(sparse.voltage, reference.voltage, atol=1e-10)

    def test_size_guard(self):
        """A pad outside the grid's size, or no pad at all, is refused."""
        solver = FDSolver(PowerGridConfig(size=8))
        with pytest.raises(PowerModelError):
            solver._solve_object([(8, 0)])
        with pytest.raises(PowerModelError):
            solver._solve_object([])

    def test_all_pads(self):
        config = PowerGridConfig(size=3)
        nodes = [(x, y) for x in range(3) for y in range(3)]
        result = FDSolver(config)._solve_object(nodes)
        assert result.max_drop == pytest.approx(0.0)
