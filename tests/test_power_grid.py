"""Tests for the power-grid model and the finite-difference solver."""

import numpy as np
import pytest

from repro.errors import PowerModelError
from repro.power import FDSolver, PowerGridConfig


class TestPowerGridConfig:
    def test_validation(self):
        with pytest.raises(PowerModelError):
            PowerGridConfig(size=1)
        with pytest.raises(PowerModelError):
            PowerGridConfig(vdd=0)
        with pytest.raises(PowerModelError):
            PowerGridConfig(r_sx=0)
        with pytest.raises(PowerModelError):
            PowerGridConfig(j0=-1)

    def test_boundary_ring_walks_once(self):
        config = PowerGridConfig(size=4)
        ring = config.boundary_ring()
        assert len(ring) == len(set(ring)) == 12  # 4*(G-1)
        # starts at bottom-left, walks the bottom edge first
        assert ring[0] == (0, 0)
        assert ring[1] == (1, 0)

    def test_ring_node_fractions(self):
        config = PowerGridConfig(size=8)
        assert config.ring_node(0.0) == (0, 0)
        # a quarter of the way round is the bottom-right corner region
        x, y = config.ring_node(0.25)
        assert x == config.size - 1
        with pytest.raises(PowerModelError):
            config.ring_node(1.5)

    def test_ring_nodes_is_the_scalar_map_per_fraction(self):
        config = PowerGridConfig(size=7)
        ring = config.boundary_ring()
        fractions = [0.0, 0.1, 0.5, 0.999999, 1.0 + 1e-13] + [
            (k + 0.5) / 97 for k in range(97)
        ]
        expected = [
            ring[min(int(f % 1.0 * len(ring)), len(ring) - 1)] for f in fractions
        ]
        assert config.ring_nodes(fractions) == expected
        assert config.ring_nodes([]) == []

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_ring_nodes_rejects_fractions_off_the_ring(self, bad):
        with pytest.raises(PowerModelError, match="outside"):
            PowerGridConfig(size=7).ring_nodes([0.25, bad])


class TestFDSolver:
    def test_requires_pads(self):
        with pytest.raises(PowerModelError):
            FDSolver(PowerGridConfig(size=4)).factorize([]).solve()

    def test_pad_outside_grid_rejected(self):
        with pytest.raises(PowerModelError):
            FDSolver(PowerGridConfig(size=4)).factorize([(9, 9)]).solve()

    def test_pads_held_at_vdd(self):
        config = PowerGridConfig(size=8, vdd=1.2)
        result = FDSolver(config).factorize([(0, 0)]).solve()
        assert result.voltage[0, 0] == pytest.approx(1.2)
        assert result.max_drop > 0

    def test_zero_current_means_zero_drop(self):
        config = PowerGridConfig(size=6, j0=0.0)
        result = FDSolver(config).factorize([(0, 0)]).solve()
        assert result.max_drop == pytest.approx(0.0, abs=1e-12)

    def test_drop_grows_with_current(self):
        small = FDSolver(PowerGridConfig(size=8, j0=1e-5)).factorize([(0, 0)]).solve()
        large = FDSolver(PowerGridConfig(size=8, j0=2e-5)).factorize([(0, 0)]).solve()
        assert large.max_drop == pytest.approx(2 * small.max_drop, rel=1e-6)

    def test_more_pads_reduce_drop(self):
        config = PowerGridConfig(size=10)
        ring = config.boundary_ring()
        few = FDSolver(config).factorize(ring[:1]).solve()
        many = FDSolver(config).factorize(ring[::4]).solve()
        assert many.max_drop < few.max_drop

    def test_worst_node_far_from_pad(self):
        config = PowerGridConfig(size=9)
        result = FDSolver(config).factorize([(0, 0)]).solve()
        x, y = result.worst_node()
        assert x + y > config.size  # opposite corner region

    def test_symmetry(self):
        # pads at two opposite corners -> symmetric voltage map
        config = PowerGridConfig(size=7)
        result = FDSolver(config).factorize([(0, 0), (6, 6)]).solve()
        assert result.voltage[0, 6] == pytest.approx(result.voltage[6, 0], rel=1e-9)

    def test_all_nodes_padded(self):
        config = PowerGridConfig(size=3)
        all_nodes = [(x, y) for x in range(3) for y in range(3)]
        result = FDSolver(config).factorize(all_nodes).solve()
        assert result.max_drop == pytest.approx(0.0)

    def test_solve_fractions(self):
        config = PowerGridConfig(size=8)
        result = FDSolver(config).solve_fractions([0.0, 0.5])
        assert len(result.pad_nodes) == 2

    def test_mean_drop_below_max(self):
        config = PowerGridConfig(size=10)
        result = FDSolver(config).factorize([(0, 0)]).solve()
        assert 0 < result.mean_drop <= result.max_drop

    def test_current_map_override(self):
        config = PowerGridConfig(size=8, j0=1e-5)
        uniform = FDSolver(config).factorize([(0, 0)]).solve()
        hot = np.full((8, 8), 1e-5)
        hot[4:, 4:] *= 10
        hotter = FDSolver(config, current_map=hot).factorize([(0, 0)]).solve()
        assert hotter.max_drop > uniform.max_drop

    def test_current_map_shape_checked(self):
        config = PowerGridConfig(size=8)
        with pytest.raises(PowerModelError):
            FDSolver(config, current_map=np.ones((4, 4)))
        with pytest.raises(PowerModelError):
            FDSolver(config, current_map=-np.ones((8, 8)))

    def test_maximum_principle(self):
        # voltage everywhere between min pad voltage and vdd
        config = PowerGridConfig(size=12)
        result = FDSolver(config).factorize([(0, 0), (11, 11)]).solve()
        assert result.voltage.max() <= config.vdd + 1e-12
        assert (result.drop_map >= -1e-12).all()
