"""Golden regression tests.

``tests/data/`` holds three frozen designs and the exact metrics (orders,
densities, wirelengths) the committed algorithms produce on them.  Any
behavioural change to the assigners, the density model or the router shows
up here first — intentional changes must regenerate the corpus (see the
module-level script in the repo history / DESIGN.md).  ``cli_table2.txt``
and ``cli_table3.txt`` are the stdout of ``repro table2`` / ``repro table3``
at their default seeds and grid.
"""

from repro.assign import assign_design
import json
from pathlib import Path

import pytest

from repro.assign import DFAAssigner, IFAAssigner, RandomAssigner
from repro.geometry import Side
from repro.io import design_from_dict
from repro.routing import (
    max_density_of_design,
    route_design,
    total_flyline_length_of_design,
)

DATA_DIR = Path(__file__).parent / "data"
EXPECTED = json.loads((DATA_DIR / "golden_expected.json").read_text())
ASSIGNERS = {
    "Random": RandomAssigner(),
    "IFA": IFAAssigner(),
    "DFA": DFAAssigner(),
}


def load(name):
    return design_from_dict(json.loads((DATA_DIR / f"{name}.json").read_text()))


@pytest.mark.parametrize("name", sorted(EXPECTED))
@pytest.mark.parametrize("assigner_name", sorted(ASSIGNERS))
def test_golden_metrics(name, assigner_name):
    design = load(name)
    expected = EXPECTED[name][assigner_name]
    assignments = assign_design(ASSIGNERS[assigner_name], design, seed=5)

    orders = {side.value: a.order for side, a in assignments.items()}
    assert orders == expected["orders"]

    assert max_density_of_design(assignments) == expected["max_density"]
    assert total_flyline_length_of_design(assignments) == pytest.approx(
        expected["flyline"], abs=1e-5
    )
    routed = route_design(assignments)
    assert sum(r.total_routed_length for r in routed.values()) == pytest.approx(
        expected["routed"], abs=1e-5
    )


def test_golden_designs_load_clean():
    from repro.package import check_design

    for name in EXPECTED:
        design = load(name)
        assert design.total_net_count > 0
        assert check_design(design).is_clean


@pytest.mark.parametrize("command", ["table2", "table3", "fig6"])
def test_cli_table_stdout(command, capsys):
    """``repro table2``/``table3``/``fig6`` at their defaults print the
    frozen tables."""
    from repro.cli import main

    assert main([command]) == 0
    expected = (DATA_DIR / f"cli_{command}.txt").read_text()
    assert capsys.readouterr().out == expected
