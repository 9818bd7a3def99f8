"""Shared fixtures: the paper's worked examples and small generated designs."""

from __future__ import annotations

import pytest

from repro.circuits import build_design, fig5_quadrant, table1_circuit
from repro.kernels.irsolve import shared_factorization
from repro.package import quadrant_from_rows


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    """Empty the process-wide factorization memo before any fixture of a
    test is set up (class-scoped ones included), so no test's timing or
    cache counts depend on which tests ran before it."""
    shared_factorization.cache_clear()


@pytest.fixture
def fig5():
    """The 12-net, 3-level quadrant of paper Figs. 5/10/12."""
    return fig5_quadrant()


@pytest.fixture
def fig5_with_supply():
    """Fig-5 quadrant with nets 10 and 9 marked as POWER pads."""
    return quadrant_from_rows(
        [[10, 2, 4, 7, 0], [1, 3, 5, 8], [11, 6, 9]], supply_ids=[10, 9]
    )


@pytest.fixture
def small_design():
    """A small but complete 4-quadrant design (fast enough for any test)."""
    return build_design(table1_circuit(1), seed=0)


@pytest.fixture
def stacked_design():
    """Circuit 1 as a 4-tier stacking IC."""
    return build_design(table1_circuit(1, tier_count=4), seed=0)
