"""Whole-package SVG: all four quadrants rotated into the physical frame.

The per-quadrant renderer of :mod:`repro.io.svg` draws in the canonical
frame; this module composes a full package view (Fig. 2's vertical view):
each side's routed quadrant is rotated by the side's quarter turns around
the package centre, so the die sits in the middle with the four bump
trapezoids fanning out.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from ..geometry import Point, canonical_to_side
from ..package import NetType

_COLORS = {
    NetType.SIGNAL: "#4477aa",
    NetType.POWER: "#cc3311",
    NetType.GROUND: "#009988",
}


def package_to_svg(
    design,
    assignments: Dict,
    routing_results: Dict,
    scale: float = 30.0,
    margin: float = 40.0,
) -> str:
    """Render routed quadrants of a whole design into one SVG document."""
    # the fingers sit at canonical y=0; pushing each quadrant outward by the
    # die half-size keeps the centre clear for the die outline
    die_half = max(
        quadrant.fingers.extent / 2.0 for __, quadrant in design
    ) * 0.25 + 1.0

    points = []
    elements = []
    for side, quadrant in design:
        if side not in routing_results:
            continue
        assignment = assignments[side]
        result = routing_results[side]
        for net in quadrant.netlist:
            routed = result.nets[net.id]
            color = _COLORS[net.net_type]
            physical = [
                canonical_to_side(
                    point.translated(0, -die_half), side, Point(0, 0)
                )
                for point in routed.layer1_points
            ]
            ball = canonical_to_side(
                routed.ball.translated(0, -die_half), side, Point(0, 0)
            )
            points.extend(physical)
            points.append(ball)
            elements.append((physical, ball, color))

    min_x = min(p.x for p in points)
    max_x = max(p.x for p in points)
    min_y = min(p.y for p in points)
    max_y = max(p.y for p in points)

    def sx(x: float) -> float:
        return margin + (x - min_x) * scale

    def sy(y: float) -> float:
        return margin + (max_y - y) * scale

    width = margin * 2 + (max_x - min_x) * scale
    height = margin * 2 + (max_y - min_y) * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    # die outline in the middle
    parts.append(
        f'<rect x="{sx(-die_half):.1f}" y="{sy(die_half):.1f}" '
        f'width="{2 * die_half * scale:.1f}" height="{2 * die_half * scale:.1f}" '
        'fill="#eeeeee" stroke="#888888"/>'
    )
    for physical, ball, color in elements:
        coords = " ".join(f"{sx(p.x):.1f},{sy(p.y):.1f}" for p in physical)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.0"/>'
        )
        parts.append(
            f'<circle cx="{sx(ball.x):.1f}" cy="{sy(ball.y):.1f}" r="3" '
            f'fill="#cccccc" stroke="{color}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def save_package_svg(
    design,
    assignments: Dict,
    routing_results: Dict,
    path: Union[str, Path],
    scale: float = 30.0,
) -> None:
    """Render and write the whole-package SVG."""
    Path(path).write_text(
        package_to_svg(design, assignments, routing_results, scale=scale)
    )
