"""Paper-level workloads: spec builders + renderers for the engine.

A workload turns CLI-level intent ("run Table 2") into the flat job list
the engine executes, and turns the outcome list back into the paper-style
rendering.  This is the one place each paper experiment is enumerated,
seeded and rendered: ``repro run``, ``repro table2``/``table3``/``fig6``,
``repro report`` and the benches all go through it.  Outcomes come back
in spec order, so the rendered tables are identical whether the jobs ran
serially, in parallel, or came out of the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from .engine import JobOutcome
from .spec import JobSpec

TABLE2_ASSIGNERS = ("Random", "IFA", "DFA")
CIRCUIT_INDEXES = (1, 2, 3, 4, 5)


def _values(outcomes: Sequence[JobOutcome]) -> List[dict]:
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        details = "; ".join(
            f"{outcome.spec.label()}: {outcome.error}" for outcome in failed
        )
        raise RuntimeError(f"{len(failed)} job(s) failed: {details}")
    return [outcome.value for outcome in outcomes]


# -- Table 2 ---------------------------------------------------------------


def table2_specs(seed: int = 42, grid: int = 32) -> List[JobSpec]:
    """Random/IFA/DFA on the five Table-1 circuits (grid unused)."""
    return [
        JobSpec("table2_cell", {"circuit": index, "assigner": assigner}, seed=seed)
        for index in CIRCUIT_INDEXES
        for assigner in TABLE2_ASSIGNERS
    ]


def table2_table(outcomes: Sequence[JobOutcome]):
    """Rebuild the :class:`ComparisonTable` that ``compare_assigners`` returns."""
    from ..flow import AssignerRun, ComparisonTable

    table = ComparisonTable(baseline="Random")
    for value in _values(outcomes):
        table.runs.append(
            AssignerRun(
                circuit=value["circuit"],
                assigner=value["assigner"],
                max_density=value["max_density"],
                wirelength=value["wirelength"],
                flyline_length=value["flyline_length"],
            )
        )
    return table


def _render_table2(outcomes: Sequence[JobOutcome]) -> str:
    from ..flow import render_table2

    return render_table2(table2_table(outcomes))


# -- Table 3 ---------------------------------------------------------------


@dataclass(frozen=True)
class CodesignView:
    """Duck-types the CoDesignResult fields the Table-3 renderer reads."""

    circuit: str
    density_after_assignment: int
    density_after_exchange: int
    ir_improvement: float
    bonding_improvement: float


def table3_specs(seed: int = 7, grid: int = 32) -> List[JobSpec]:
    """The exchange experiment: five circuits at psi=1 and psi=4."""
    return [
        JobSpec(
            "codesign",
            {"circuit": index, "tiers": tiers, "grid": grid},
            seed=seed,
        )
        for tiers in (1, 4)
        for index in CIRCUIT_INDEXES
    ]


def table3_results(outcomes: Sequence[JobOutcome]):
    """Split outcomes into the (2-D, stacked) dicts render_table3 wants."""
    results: Dict[int, Dict[str, CodesignView]] = {1: {}, 4: {}}
    for value in _values(outcomes):
        results[value["tiers"]][value["circuit"]] = CodesignView(
            circuit=value["circuit"],
            density_after_assignment=value["density_after_assignment"],
            density_after_exchange=value["density_after_exchange"],
            ir_improvement=value["ir_improvement"],
            bonding_improvement=value["bonding_improvement"],
        )
    return results[1], results[4]


def _render_table3(outcomes: Sequence[JobOutcome]) -> str:
    from ..flow import render_table3

    results_2d, results_stacked = table3_results(outcomes)
    return render_table3(results_2d, results_stacked)


# -- Fig. 6 ----------------------------------------------------------------


def fig6_specs(seed: int = 2009, grid: int = 40) -> List[JobSpec]:
    return [JobSpec("fig6", {"grid": grid}, seed=seed)]


def fig6_result(outcomes: Sequence[JobOutcome]):
    from ..circuits import Fig6Result

    (value,) = _values(outcomes)
    return Fig6Result(
        random_mv=value["random_mv"],
        regular_mv=value["regular_mv"],
        optimized_mv=value["optimized_mv"],
    )


def _render_fig6(outcomes: Sequence[JobOutcome]) -> str:
    from ..flow import render_fig6

    return render_fig6(fig6_result(outcomes))


# -- smoke -----------------------------------------------------------------


def smoke_specs(seed: int = 0, grid: int = 16) -> List[JobSpec]:
    """A tiny engine shakedown: circuit 1 with a short SA schedule."""
    return [
        JobSpec(
            "codesign",
            {
                "circuit": 1,
                "tiers": tiers,
                "grid": grid,
                "moves_per_temp": 20,
                "cooling": 0.8,
            },
            seed=seed,
        )
        for tiers in (1, 4)
    ]


def _render_smoke(outcomes: Sequence[JobOutcome]) -> str:
    lines = []
    for value in _values(outcomes):
        sa = value["sa"]
        lines.append(
            f"{value['circuit']} (psi={value['tiers']}): "
            f"density {value['density_after_assignment']} -> "
            f"{value['density_after_exchange']}, "
            f"IR improvement {value['ir_improvement'] * 100:.2f}%, "
            f"SA acceptance {sa['acceptance_ratio']:.3f}"
        )
    return "\n".join(lines)


# -- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One runnable evaluation target for ``python -m repro run``."""

    name: str
    help: str
    default_seed: int
    default_grid: int
    build: Callable[[int, int], List[JobSpec]]
    render: Callable[[Sequence[JobOutcome]], str]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "table2", "Random/IFA/DFA comparison (Table 2)",
            42, 32, table2_specs, _render_table2,
        ),
        Workload(
            "table3", "finger/pad exchange experiment (Table 3)",
            7, 32, table3_specs, _render_table3,
        ),
        Workload(
            "fig6", "real-chip IR-drop comparison (Fig. 6)",
            2009, 40, fig6_specs, _render_fig6,
        ),
        Workload(
            "smoke", "tiny engine shakedown (<30 s)",
            0, 16, smoke_specs, _render_smoke,
        ),
    )
}
