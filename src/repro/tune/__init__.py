"""SA auto-tuning: schedule sweeps, Pareto fronts, parallel tempering.

``repro tune sweep`` fans a schedule grid out as cached engine jobs and
reports the Pareto front over (final Eq.-3 cost, wall-clock);
``repro run --tempering K`` runs replica-exchange parallel tempering
through the same engine.  See ``docs/tuning.md``.
"""

from .pareto import dominates, knee_point, pareto_front, render_pareto_svg
from .sweep import (
    SweepGrid,
    aggregate_cells,
    build_report,
    run_sweep,
    sweep_specs,
    write_report,
)
from .tempering import (
    TemperingConfig,
    chain_temperatures,
    run_tempering,
    swap_accept,
)

__all__ = [
    "SweepGrid",
    "TemperingConfig",
    "aggregate_cells",
    "build_report",
    "chain_temperatures",
    "dominates",
    "knee_point",
    "pareto_front",
    "render_pareto_svg",
    "run_sweep",
    "run_tempering",
    "swap_accept",
    "sweep_specs",
    "write_report",
]
