"""Pareto-front math and rendering for the schedule-tuning sweep.

A sweep cell is a dict with at least ``cost`` (mean final Eq.-3 cost) and
``seconds`` (mean anneal wall-clock).  Both objectives are minimized, so
the front is the set of cells no other cell beats on both axes, and the
recommended schedule is the front's *knee*: the point closest (in
normalized objective space) to the utopia corner (min cost, min seconds).

Rendering follows the stdlib-SVG discipline of :mod:`repro.obs.curves` —
no plotting dependency to gate on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..obs.curves import rescale


def dominates(a: Dict, b: Dict) -> bool:
    """True when *a* is at least as good on both axes and better on one."""
    return (
        a["cost"] <= b["cost"]
        and a["seconds"] <= b["seconds"]
        and (a["cost"] < b["cost"] or a["seconds"] < b["seconds"])
    )


def pareto_front(cells: Sequence[Dict]) -> List[Dict]:
    """The non-dominated subset of *cells*, fastest first.

    Duplicate objective pairs are collapsed to one representative (the
    first in input order) so the front is a strict staircase.
    """
    front: List[Dict] = []
    seen = set()
    for cell in cells:
        if any(dominates(other, cell) for other in cells if other is not cell):
            continue
        key = (cell["cost"], cell["seconds"])
        if key in seen:
            continue
        seen.add(key)
        front.append(cell)
    front.sort(key=lambda cell: (cell["seconds"], cell["cost"]))
    return front


def knee_point(front: Sequence[Dict]) -> Optional[Dict]:
    """The front cell nearest the utopia corner in normalized space.

    Each axis is scaled to [0, 1] over the front's own range; a degenerate
    axis (all equal) contributes zero, so a single-point front is its own
    knee.  Ties break toward the faster cell (front order).
    """
    if not front:
        return None
    costs = [cell["cost"] for cell in front]
    times = [cell["seconds"] for cell in front]
    cost_span = max(costs) - min(costs)
    time_span = max(times) - min(times)

    def distance(cell: Dict) -> float:
        dc = (cell["cost"] - min(costs)) / cost_span if cost_span > 0 else 0.0
        dt = (cell["seconds"] - min(times)) / time_span if time_span > 0 else 0.0
        return math.hypot(dc, dt)

    return min(front, key=distance)


def _schedule_label(cell: Dict) -> str:
    schedule = cell.get("schedule", {})
    return (
        f'T0={schedule.get("initial_temp")} '
        f'a={schedule.get("cooling")} '
        f'm={schedule.get("moves_per_temp")}'
    )


def render_pareto_svg(report: Dict, width: int = 720, height: int = 420) -> str:
    """The sweep's (wall-clock, cost) scatter as a standalone SVG.

    Every cell is a gray dot; the Pareto front is the red staircase; the
    knee (the shipped tuned default) is the filled red ring with its
    schedule labelled.
    """
    cells = report["cells"]
    front = report["front"]
    knee = report.get("knee")
    margin = 56
    x0, x1 = margin, width - margin
    y0, y1 = height - margin, margin  # SVG y grows downward
    times = [cell["seconds"] for cell in cells] or [0.0, 1.0]
    costs = [cell["cost"] for cell in cells] or [0.0, 1.0]
    t_lo, t_hi = min(times), max(times)
    c_lo, c_hi = min(costs), max(costs)
    xs = rescale(times, t_lo, t_hi, x0, x1)
    ys = rescale(costs, c_lo, c_hi, y0, y1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">'
        f'tune sweep: {report.get("circuit", "?")} '
        f"({len(cells)} cells, front {len(front)})</text>",
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#444"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#444"/>',
        f'<text x="{x0}" y="{y0 + 16}" font-family="monospace" '
        f'font-size="10">{t_lo:.3g}s</text>',
        f'<text x="{x1}" y="{y0 + 16}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{t_hi:.3g}s wall-clock</text>',
        f'<text x="{x0 - 4}" y="{y1}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{c_hi:.5g}</text>',
        f'<text x="{x0 - 4}" y="{y0}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{c_lo:.5g}</text>',
    ]
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.5" fill="#9aa0a6"/>'
        )
    if front:
        fx = rescale([cell["seconds"] for cell in front], t_lo, t_hi, x0, x1)
        fy = rescale([cell["cost"] for cell in front], c_lo, c_hi, y0, y1)
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(fx, fy))
        parts.append(
            f'<polyline fill="none" stroke="#d62728" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        for x, y in zip(fx, fy):
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#d62728"/>'
            )
    if knee is not None:
        (kx,) = rescale([knee["seconds"]], t_lo, t_hi, x0, x1)
        (ky,) = rescale([knee["cost"]], c_lo, c_hi, y0, y1)
        parts.extend(
            [
                f'<circle cx="{kx:.1f}" cy="{ky:.1f}" r="7" fill="none" '
                f'stroke="#d62728" stroke-width="2"/>',
                f'<text x="{kx + 10:.1f}" y="{ky - 8:.1f}" '
                f'font-family="monospace" font-size="10" fill="#d62728">'
                f"knee: {_schedule_label(knee)}</text>",
            ]
        )
    parts.append("</svg>")
    return "\n".join(parts)
