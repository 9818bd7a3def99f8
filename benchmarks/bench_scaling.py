"""Scaling of the assignment algorithms with finger count.

The paper claims IFA is O(n^2) and DFA is O(n) (sections 3.1.1-3.1.2) and
motivates both with the >100-finger counts of modern chips.  This bench
sweeps the finger count well past the paper's largest circuit (448) and
reports runtime plus density, confirming the heuristics stay at the
congestion floor while the random baseline keeps degrading.  The pytest
run persists the sweep to ``results/BENCH_scaling.json`` for ``repro stats
--compare``.

Also runnable without pytest::

    PYTHONPATH=src python benchmarks/bench_scaling.py
"""

import sys
import time

from repro.assign import DFAAssigner, IFAAssigner, RandomAssigner, assign_design
from repro.circuits import CircuitSpec, build_design
from repro.routing import max_density_of_design

COUNTS = (96, 224, 448, 896, 1792)

#: Perf-ledger registration: densities are deterministic (absolute bounds
#: in the baseline); the largest-sweep timings gate relatively.
LEDGER_GATED = {"dfa_ms_1792": "lower", "ifa_ms_1792": "lower",
                "dfa_density_1792": "lower"}
LEDGER_SEED = 0


def ledger_metrics() -> dict:
    rows = sweep(COUNTS)
    metrics = {}
    for row in rows:
        count = row["count"]
        for name in ("Random", "IFA", "DFA"):
            density, elapsed_ms = row[name]
            metrics[f"{name.lower()}_density_{count}"] = float(density)
            metrics[f"{name.lower()}_ms_{count}"] = round(elapsed_ms, 3)
    return metrics


def sweep(counts):
    rows = []
    for count in counts:
        spec = CircuitSpec(name=f"sweep{count}", finger_count=count)
        design = build_design(spec, seed=0)
        row = {"count": count}
        for assigner in (RandomAssigner(), IFAAssigner(), DFAAssigner()):
            start = time.perf_counter()
            assignments = assign_design(assigner, design, seed=0)
            elapsed = time.perf_counter() - start
            row[assigner.name] = (
                max_density_of_design(assignments),
                elapsed * 1000.0,
            )
        rows.append(row)
    return rows


def render(rows) -> str:
    lines = ["fingers   Random dens   IFA dens   DFA dens   IFA ms   DFA ms"]
    for row in rows:
        lines.append(
            f"{row['count']:>7}   {row['Random'][0]:>11}   {row['IFA'][0]:>8}"
            f"   {row['DFA'][0]:>8}   {row['IFA'][1]:>6.1f}   {row['DFA'][1]:>6.1f}"
        )
    return "\n".join(lines)


def write_record(rows) -> None:
    """Persist the sweep as a ``repro stats --compare``-able bench record."""
    from pathlib import Path

    from repro.obs.bench import write_bench_record

    metrics = {}
    for row in rows:
        count = row["count"]
        for name in ("Random", "IFA", "DFA"):
            density, elapsed_ms = row[name]
            metrics[f"{name.lower()}_density_{count}"] = density
            metrics[f"{name.lower()}_ms_{count}"] = round(elapsed_ms, 3)
    results = Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    write_bench_record(
        results / "BENCH_scaling.json",
        "scaling",
        metrics,
        seed=0,
        context={"counts": [row["count"] for row in rows]},
    )


def test_scaling(benchmark, record_result):
    rows = benchmark.pedantic(lambda: sweep(COUNTS), rounds=1, iterations=1)
    record_result("scaling", render(rows))
    write_record(rows)

    # the heuristics stay near the 4-level congestion floor at every size
    for row in rows:
        assert row["DFA"][0] <= 8
        assert row["IFA"][0] <= 10
        assert row["Random"][0] >= row["DFA"][0]


def main() -> int:
    rows = sweep(COUNTS)
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
