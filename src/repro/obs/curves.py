"""Bounded SA convergence-curve capture and rendering.

The annealer's ``sa.step`` events give one sample per temperature tier,
which is enough for the coarse acceptance curve in ``repro stats`` but
loses the intra-step dynamics a tuning harness needs, and a trace consumer
has to re-join them per job.  This module captures the convergence
trajectory *inside* the anneal with a hard point budget and ships it as a
single ``sa.curve`` event:

- :class:`CurveRecorder` — observe ``(move, cost, best_cost, acceptance,
  temperature)`` samples as the schedule cools; when the sample count
  exceeds the budget the recorder drops every other retained point and
  doubles its sampling stride (classic stride-doubling), so memory and
  event size stay O(budget) no matter how many moves a 100k-finger run
  proposes.  The final sample is always retained.
- :func:`extract_curves` — pull the ``sa.curve`` events back out of a
  trace, keyed by circuit / job label.
- :func:`render_curve_svg` / :func:`curve_to_json` — stdlib-only
  rendering for ``repro stats --curves``: cost and best-cost polylines
  against move count with the acceptance ratio on a secondary axis.

Point layout (also the on-trace JSON form)::

    [move, cost, best_cost, acceptance, temperature]
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional, Sequence

#: Default retained-point budget.  Acceptance criteria cap a rendered
#: curve at 2048 points; stride doubling keeps us in (budget/2, budget].
CURVE_POINT_BUDGET = 1024

#: Index layout of one curve point.
MOVE, COST, BEST, ACCEPTANCE, TEMPERATURE = range(5)


class CurveRecorder:
    """Stride-doubling sampler of one anneal's convergence trajectory."""

    def __init__(self, budget: int = CURVE_POINT_BUDGET) -> None:
        if budget < 2:
            raise ValueError("curve budget must be >= 2")
        self.budget = int(budget)
        self.stride = 1
        self.points: List[List[float]] = []
        self.observed = 0
        self._last: Optional[List[float]] = None

    def observe(self, move: int, cost: float, best_cost: float,
                acceptance: float, temperature: float) -> None:
        """Offer one sample (typically once per temperature step)."""
        point = [
            int(move), float(cost), float(best_cost),
            float(acceptance), float(temperature),
        ]
        self._last = point
        if self.observed % self.stride == 0:
            self.points.append(point)
            if len(self.points) > self.budget:
                # Keep every other point and double the stride; the kept
                # points remain exactly the multiples of the new stride.
                self.points = self.points[::2]
                self.stride *= 2
        self.observed += 1

    def finish(self) -> List[List[float]]:
        """The retained points, guaranteeing the final sample is present."""
        if self._last is not None and (
            not self.points or self.points[-1][MOVE] != self._last[MOVE]
        ):
            self.points.append(self._last)
        return self.points

    def emit(self, telemetry, circuit: Optional[str] = None) -> dict:
        """Emit the finished curve as one ``sa.curve`` event."""
        points = self.finish()
        fields = {
            "points": points,
            "stride": self.stride,
            "total_steps": self.observed,
            "budget": self.budget,
        }
        if circuit:
            fields["circuit"] = circuit
        return telemetry.emit("sa.curve", **fields)


def extract_curves(events: Sequence[dict]) -> List[dict]:
    """Every ``sa.curve`` event of a trace, oldest first, with a stable
    ``name`` derived from the circuit, the job label, or the position."""
    curves = []
    for event in events:
        if not isinstance(event, dict) or event.get("event") != "sa.curve":
            continue
        points = event.get("points")
        if not isinstance(points, list) or not points:
            continue
        name = event.get("circuit")
        if not name:
            label = event.get("job")
            name = label.split("[", 1)[0] if isinstance(label, str) else ""
        curves.append(
            {
                "name": name or f"anneal{len(curves)}",
                "points": points,
                "stride": event.get("stride", 1),
                "total_steps": event.get("total_steps", len(points)),
            }
        )
    return curves


def curve_to_json(curve: dict) -> dict:
    """A self-describing JSON document for one extracted curve."""
    points = curve["points"]
    return {
        "schema": 1,
        "name": curve["name"],
        "columns": ["move", "cost", "best_cost", "acceptance", "temperature"],
        "stride": curve.get("stride", 1),
        "total_steps": curve.get("total_steps", len(points)),
        "points": points,
        "final_cost": points[-1][COST],
        "best_cost": min(p[BEST] for p in points),
    }


def rescale(values: Sequence[float], lo: float, hi: float,
           out_lo: float, out_hi: float) -> List[float]:
    """Map *values* from ``[lo, hi]`` onto ``[out_lo, out_hi]`` linearly."""
    span = hi - lo
    if span <= 0:
        return [(out_lo + out_hi) / 2.0 for _ in values]
    k = (out_hi - out_lo) / span
    return [out_lo + (v - lo) * k for v in values]


def _polyline(xs: Sequence[float], ys: Sequence[float], color: str,
              width: float = 1.5, dash: str = "") -> str:
    coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
        f'{extra} points="{coords}"/>'
    )


def render_curve_svg(curve: dict, width: int = 720, height: int = 360) -> str:
    """One convergence curve as a standalone SVG document.

    Cost (solid) and best-cost (dashed) polylines on the left axis,
    acceptance ratio (dotted) on the right axis, both against move count.
    Stdlib-only on purpose — no plotting dependency to gate on.
    """
    points = curve["points"]
    margin = 48
    x0, x1 = margin, width - margin
    y0, y1 = height - margin, margin  # SVG y grows downward
    moves = [p[MOVE] for p in points]
    costs = [p[COST] for p in points]
    bests = [p[BEST] for p in points]
    accepts = [min(1.0, max(0.0, p[ACCEPTANCE])) for p in points]
    finite = [v for v in costs + bests if math.isfinite(v)]
    lo, hi = (min(finite), max(finite)) if finite else (0.0, 1.0)
    xs = rescale(moves, min(moves), max(moves), x0, x1)
    cost_ys = rescale(costs, lo, hi, y0, y1)
    best_ys = rescale(bests, lo, hi, y0, y1)
    accept_ys = rescale(accepts, 0.0, 1.0, y0, y1)
    title = curve.get("name", "anneal")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">'
        f"sa convergence: {title} ({len(points)} pts, "
        f'stride {curve.get("stride", 1)})</text>',
        # axes
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#444"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#444"/>',
        f'<text x="{x0}" y="{y0 + 16}" font-family="monospace" '
        f'font-size="10">{moves[0]}</text>',
        f'<text x="{x1}" y="{y0 + 16}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{moves[-1]} moves</text>',
        f'<text x="{x0 - 4}" y="{y1}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{hi:.4g}</text>',
        f'<text x="{x0 - 4}" y="{y0}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{lo:.4g}</text>',
        _polyline(xs, cost_ys, "#1f77b4"),
        _polyline(xs, best_ys, "#2ca02c", dash="6,3"),
        _polyline(xs, accept_ys, "#d62728", width=1.0, dash="2,3"),
        f'<text x="{x1}" y="{y1 - 6}" text-anchor="end" '
        f'font-family="monospace" font-size="10" fill="#1f77b4">cost</text>',
        f'<text x="{x1 - 50}" y="{y1 - 6}" text-anchor="end" '
        f'font-family="monospace" font-size="10" fill="#2ca02c">best</text>',
        f'<text x="{x1 - 100}" y="{y1 - 6}" text-anchor="end" '
        f'font-family="monospace" font-size="10" '
        f'fill="#d62728">acceptance</text>',
        "</svg>",
    ]
    return "\n".join(parts)


def write_curves(events: Sequence[dict], out_dir,
                 width: int = 720, height: int = 360) -> List[str]:
    """Render every curve of a trace to ``sa_curve_<name>.svg`` + ``.json``
    under *out_dir*; returns the written paths (``repro stats --curves``)."""
    curves = extract_curves(events)
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    seen: Dict[str, int] = {}
    used: set = set()
    for curve in curves:
        label = "".join(
            ch if ch.isalnum() or ch in "-_" else "_" for ch in curve["name"]
        ) or "anneal"
        # Deterministic per (label, occurrence): occurrence 0 keeps the bare
        # label, occurrence n gets `_n` — but never a name another curve
        # already claimed.  Without the `used` check, a trace holding both a
        # literal "c1_1" curve and two "c1" curves would render the second
        # "c1" as "c1_1" and silently overwrite the real one.
        count = seen.get(label, 0)
        base = label if count == 0 else f"{label}_{count}"
        while base in used:
            count += 1
            base = f"{label}_{count}"
        seen[label] = count + 1
        used.add(base)
        svg_path = os.path.join(os.fspath(out_dir), f"sa_curve_{base}.svg")
        json_path = os.path.join(os.fspath(out_dir), f"sa_curve_{base}.json")
        with open(svg_path, "w", encoding="utf-8") as handle:
            handle.write(render_curve_svg(curve, width=width, height=height))
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(curve_to_json(curve), handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.extend([svg_path, json_path])
    return written
