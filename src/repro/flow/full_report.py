"""One-shot regeneration of the paper's whole evaluation.

``generate_report`` runs Tables 1-3 and the Fig.-5/6/10/12/13 experiments
and writes a single self-contained markdown report — what
``python -m repro report`` produces and what a reviewer would diff against
the paper.  Tables 2-3 and Fig. 6 are the ``table2``/``table3``/``fig6``
workloads of :mod:`repro.runtime.workloads`, run on the job engine and
rendered exactly as ``repro run`` prints them.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional, Union


def generate_report(
    path: Union[str, Path],
    seed: Optional[int] = None,
    grid_size: Optional[int] = None,
    include_table3: bool = True,
    include_fig6: bool = True,
) -> str:
    """Run the evaluation and write a markdown report to *path*.

    *seed* and *grid_size* apply to Table 3 and default to the ``table3``
    workload's; Table 2 and Fig. 6 run at their workloads' defaults.
    ``include_table3`` / ``include_fig6`` let callers skip the two slow
    experiments for a quick smoke report.  Returns the report text.
    """
    from ..assign import Assignment, DFAAssigner, IFAAssigner
    from ..circuits import FIG5_RANDOM_ORDER, fig5_quadrant, fig13_quadrant
    from ..routing import max_density
    from ..runtime import JobEngine
    from ..runtime.workloads import WORKLOADS
    from .report import render_table1

    path = Path(path)
    # Fail on an unwritable destination before the evaluation runs.
    path.parent.mkdir(parents=True, exist_ok=True)
    seed = WORKLOADS["table3"].default_seed if seed is None else seed
    grid_size = WORKLOADS["table3"].default_grid if grid_size is None else grid_size
    engine = JobEngine()

    def workload_section(
        name: str, run_seed: Optional[int] = None, run_grid: Optional[int] = None
    ) -> List[str]:
        workload = WORKLOADS[name]
        specs = workload.build(
            workload.default_seed if run_seed is None else run_seed,
            workload.default_grid if run_grid is None else run_grid,
        )
        return ["```", workload.render(engine.run(specs)), "```"]

    start = time.time()
    sections = ["# Reproduction report", ""]
    sections.append(
        "Regenerated by `repro.flow.full_report.generate_report` "
        f"(seed {seed}, grid {grid_size})."
    )

    sections += ["", "## Table 1 — test circuits", "", "```"]
    sections.append(render_table1())
    sections.append("```")

    sections += ["", "## Table 2 — Random / IFA / DFA", ""]
    sections += workload_section("table2")
    sections.append(
        "paper averages: density 1 / 0.63 / 0.36, wirelength 1 / 0.88 / 0.82"
    )

    if include_table3:
        sections += ["", "## Table 3 — finger/pad exchange", ""]
        sections += workload_section("table3", seed, grid_size)
        sections.append(
            "paper averages: IR 10.61% (2-D), 4.58% (psi=4), bonding 15.66%"
        )

    sections += ["", "## Worked examples (exact)", ""]
    quadrant = fig5_quadrant()
    random_density = max_density(Assignment(quadrant, FIG5_RANDOM_ORDER))
    dfa = DFAAssigner().assign(quadrant)
    ifa = IFAAssigner().assign(quadrant)
    sections.append(
        f"* Fig. 5: random density {random_density} (paper 4), "
        f"DFA order {dfa.order} density {max_density(dfa)} (paper 2)"
    )
    sections.append(
        f"* Fig. 10: IFA order {ifa.order} density {max_density(ifa)} (paper 2)"
    )
    fig13 = fig13_quadrant()
    sections.append(
        f"* Fig. 13: IFA {max_density(IFAAssigner().assign(fig13))} vs "
        f"DFA {max_density(DFAAssigner().assign(fig13))} (paper 6 vs 5)"
    )

    if include_fig6:
        sections += ["", "## Fig. 6 — real-chip pad plans", ""]
        sections += workload_section("fig6")

    sections += ["", f"_elapsed: {time.time() - start:.1f} s_", ""]
    text = "\n".join(sections)
    path.write_text(text)
    return text
