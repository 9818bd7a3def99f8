"""SPICE-deck export of the power grid.

The compact model's authors validate against SPICE ("the results are shown
to be close to the results from SPICE simulation", paper section 2.4).
:func:`export_spice` supports the same workflow for our grid: it writes the
FD grid as a plain resistor/current-source netlist any SPICE engine can
run — external validation without trusting our solver.  The in-repo second
opinion is ``FDSolver._solve_object``, the reference assembly that
``tests/test_spice.py`` checks the factorized solve against to 1e-10.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from ..errors import PowerModelError
from .grid import PowerGridConfig


def _node_name(x: int, y: int) -> str:
    return f"n_{x}_{y}"


def export_spice(
    config: PowerGridConfig,
    pad_nodes: Iterable[Tuple[int, int]],
    path: Union[str, Path, None] = None,
    current_map: Optional[np.ndarray] = None,
    title: str = "repro power grid",
) -> str:
    """Render the power grid as a SPICE netlist; optionally write it.

    Pads become ideal voltage sources to ground; every grid cell sinks its
    current through a DC current source.  The deck ends with an ``.op``
    card so any engine prints the node voltages.
    """
    g = config.size
    pads = sorted(set(tuple(node) for node in pad_nodes))
    if not pads:
        raise PowerModelError("at least one pad node is required")
    for x, y in pads:
        if not (0 <= x < g and 0 <= y < g):
            raise PowerModelError(f"pad node ({x},{y}) outside {g}x{g} grid")
    if current_map is not None:
        current_map = np.asarray(current_map, dtype=float)
        if current_map.shape != (g, g):
            raise PowerModelError("current map shape mismatch")

    lines: List[str] = [f"* {title}", f"* {g}x{g} grid, {len(pads)} pad(s)"]
    resistor_index = 1
    for x in range(g):
        for y in range(g):
            if x + 1 < g:
                lines.append(
                    f"R{resistor_index} {_node_name(x, y)} "
                    f"{_node_name(x + 1, y)} {config.r_sx:g}"
                )
                resistor_index += 1
            if y + 1 < g:
                lines.append(
                    f"R{resistor_index} {_node_name(x, y)} "
                    f"{_node_name(x, y + 1)} {config.r_sy:g}"
                )
                resistor_index += 1
    for index, (x, y) in enumerate(pads, start=1):
        lines.append(f"V{index} {_node_name(x, y)} 0 DC {config.vdd:g}")
    source_index = 1
    for x in range(g):
        for y in range(g):
            draw = config.j0 if current_map is None else current_map[x, y]
            if draw > 0:
                lines.append(
                    f"I{source_index} {_node_name(x, y)} 0 DC {draw:g}"
                )
                source_index += 1
    lines.append(".op")
    lines.append(".end")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text

