"""End-to-end staged-pipeline throughput: flat kernels vs the object model.

``bench_kernel`` times the exchange inner loop in isolation; this bench
times one full co-design *flow iteration* — assignment, density estimation
and IR analysis over several current maps — on the kernels and on the
object-model references, and sweeps
the design size to 100k+ fingers, far past the paper's largest circuit
(448).  The array path runs the ``repro.kernels`` stage ports
(``ifa_order``/``dfa_order``, ``max_density_of_order``) and the
factor-once/re-solve-many ``GridFactorization``; the object path runs the
original per-object assigners, run-model density and the Python-loop FD
assembly once per current map.

The object path is O(rows x n) in assignment and re-assembles the grid
for every map, so it is only measured up to ``OBJECT_CAP`` fingers; the
array curve continues to 100k and lands in ``results/BENCH_pipeline.json``
for ``repro stats --compare``.

Also runnable without pytest as a CI smoke::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke

which runs the mid-size point only, asserts the array pipeline is >= 2x
the object pipeline end-to-end and exits non-zero otherwise (< 30 s).

Registered with the perf ledger (``repro bench run --only pipeline``):
``ledger_metrics`` times the array path at 16,384 fingers, one
``evaluate`` of the 100,352-finger DFA assignment at the two grid sizes
of the co-design benchmark's ``assign_evaluate`` workload, one
``assign`` of that design with each of the workload's three methods, and
``build_design`` of that design.
The first two start every repeat from an empty process-wide
factorization memo, so they time cold factorizations, not memo hits.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.api import assign, evaluate
from repro.assign import DFAAssigner, assign_design
from repro.circuits import CircuitSpec, build_design
from repro.kernels.irsolve import shared_factorization
from repro.power import FDSolver, PowerGridConfig
from repro.power.pads import pad_nodes_for_grid
from repro.routing import density_map, max_density_of_design

FULL_COUNTS = (1024, 4096, 16384, 50176, 100352)
SMOKE_COUNTS = (4096,)
#: Largest size the object path is timed at; past this only the array
#: curve continues (the object assignment alone would take minutes).
OBJECT_CAP = 50176
#: Power-grid edge length; fixed so the IR stage isolates the
#: factor-once/re-solve-many win rather than grid growth.
GRID_SIZE = 40
#: Current maps solved per flow iteration — one factorization serves all
#: of them on the array path, the object path re-assembles each time.
RESOLVE_MAPS = 6


def _current_maps(config: PowerGridConfig, seed: int = 0) -> list:
    """A batch of hotspot current maps, as a flow's SA loop would probe."""
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(RESOLVE_MAPS):
        current = np.full((config.size, config.size), config.j0)
        x, y = rng.integers(0, config.size, 2)
        lo_x, lo_y = max(0, x - 6), max(0, y - 6)
        current[lo_x : x + 6, lo_y : y + 6] *= 8.0
        maps.append(current)
    return maps


def run_pipeline(design, config, maps, path: str):
    """One flow iteration on *path*; returns (max_density, [max_drop...]).

    ``"array"`` is the production path.  ``"object"`` calls the references
    directly: the assigner's own ``assign`` per quadrant, ``density_map``
    and a fresh Python-loop FD assembly per current map.
    """
    if path == "array":
        assignments = assign_design(DFAAssigner(), design)
        density = max_density_of_design(assignments)
    else:
        assigner = DFAAssigner()
        assignments = {side: assigner.assign(quadrant) for side, quadrant in design}
        density = max(density_map(a).max_density for a in assignments.values())
    nodes = pad_nodes_for_grid(design, assignments, config, net_type=None)
    if path == "array":
        factorization = FDSolver(config).factorize(nodes)
        drops = [factorization.solve(current).max_drop for current in maps]
    else:
        drops = [
            FDSolver(config, current_map=current)._solve_object(nodes).max_drop
            for current in maps
        ]
    return density, drops


def measure_point(count: int) -> dict:
    design = build_design(
        CircuitSpec(name=f"pipeline{count}", finger_count=count), seed=0
    )
    config = PowerGridConfig(size=GRID_SIZE)
    maps = _current_maps(config)

    start = time.perf_counter()
    array_density, array_drops = run_pipeline(design, config, maps, "array")
    array_ms = (time.perf_counter() - start) * 1000.0

    row = {"count": count, "array_ms": array_ms}
    if count <= OBJECT_CAP:
        start = time.perf_counter()
        object_density, object_drops = run_pipeline(design, config, maps, "object")
        row["object_ms"] = (time.perf_counter() - start) * 1000.0
        row["speedup"] = row["object_ms"] / array_ms
        # parity guard: a fast pipeline that computes different answers
        # is a bug, not a speedup
        assert object_density == array_density
        assert np.allclose(object_drops, array_drops, rtol=1e-9)
    return row


def sweep(counts) -> list:
    return [measure_point(count) for count in counts]


def render(rows) -> str:
    lines = ["fingers   object ms   array ms   speedup"]
    for row in rows:
        object_ms = f"{row['object_ms']:>9.1f}" if "object_ms" in row else "        -"
        speedup = f"{row['speedup']:>6.1f}x" if "speedup" in row else "      -"
        lines.append(f"{row['count']:>7}   {object_ms}   {row['array_ms']:>8.1f}   {speedup}")
    return "\n".join(lines)


def write_record(rows) -> None:
    """Persist the scaling curve as a ``repro stats --compare``-able record."""
    from pathlib import Path

    from repro.obs.bench import write_bench_record

    metrics = {}
    for row in rows:
        count = row["count"]
        metrics[f"array_ms_{count}"] = round(row["array_ms"], 2)
        if "object_ms" in row:
            metrics[f"object_ms_{count}"] = round(row["object_ms"], 2)
            metrics[f"speedup_{count}"] = round(row["speedup"], 2)
    results = Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    write_bench_record(
        results / "BENCH_pipeline.json",
        "pipeline_e2e",
        metrics,
        seed=0,
        context={
            "counts": [row["count"] for row in rows],
            "grid_size": GRID_SIZE,
            "resolve_maps": RESOLVE_MAPS,
            "object_cap": OBJECT_CAP,
        },
    )


#: Perf-ledger point (``repro bench run``): the array path only, at a size
#: ``make bench-ledger`` affords, timed cold (fresh design, so the lazily
#: built per-quadrant tables are paid for) and reported as the median of
#: ``LEDGER_REPEATS`` runs.
LEDGER_COUNT = 16384
LEDGER_REPEATS = 3
LEDGER_SEED = 0
#: The evaluate and assign points: fingers, the power-grid sizes evaluate
#: is measured at and the methods assign runs.
EVALUATE_COUNT = 100352
EVALUATE_GRIDS = (32, 96)
ASSIGN_METHODS = ("ifa", "dfa", "random")
LEDGER_GATED = {
    f"array_ms_{LEDGER_COUNT}": "lower",
    f"evaluate_ms_{EVALUATE_COUNT}": "lower",
    f"assign_ms_{EVALUATE_COUNT}": "lower",
    f"build_ms_{EVALUATE_COUNT}": "lower",
}


def _build_ms(spec) -> tuple:
    """(median ms of ``build_design(spec)``, the last design built)."""
    times = []
    for _ in range(LEDGER_REPEATS):
        start = time.perf_counter()
        design = build_design(spec, seed=LEDGER_SEED)
        times.append((time.perf_counter() - start) * 1000.0)
    return round(float(np.median(times)), 3), design


def _assign_ms(design) -> float:
    """Median ms of one ``assign`` per method in ``ASSIGN_METHODS``."""
    times = []
    for _ in range(LEDGER_REPEATS):
        start = time.perf_counter()
        for method in ASSIGN_METHODS:
            assign(design, method, seed=LEDGER_SEED)
        times.append((time.perf_counter() - start) * 1000.0)
    return round(float(np.median(times)), 3)


def _evaluate_ms(design) -> float:
    """Median ms of evaluating one assignment at ``EVALUATE_GRIDS``, cold memo."""
    assignments = assign_design(DFAAssigner(), design)
    times = []
    for _ in range(LEDGER_REPEATS):
        shared_factorization.cache_clear()
        start = time.perf_counter()
        for size in EVALUATE_GRIDS:
            evaluate(design, assignments, grid=size)
        times.append((time.perf_counter() - start) * 1000.0)
    return round(float(np.median(times)), 3)


def ledger_metrics() -> dict:
    config = PowerGridConfig(size=GRID_SIZE)
    maps = _current_maps(config)
    spec = CircuitSpec(name=f"pipeline{LEDGER_COUNT}", finger_count=LEDGER_COUNT)
    times = []
    for _ in range(LEDGER_REPEATS):
        design = build_design(spec, seed=LEDGER_SEED)
        shared_factorization.cache_clear()
        start = time.perf_counter()
        density, drops = run_pipeline(design, config, maps, "array")
        times.append((time.perf_counter() - start) * 1000.0)
    build_ms, big = _build_ms(
        CircuitSpec(name=f"pipeline{EVALUATE_COUNT}", finger_count=EVALUATE_COUNT)
    )
    return {
        f"array_ms_{LEDGER_COUNT}": round(float(np.median(times)), 3),
        f"density_{LEDGER_COUNT}": float(density),
        f"max_drop_{LEDGER_COUNT}": max(drops),
        f"evaluate_ms_{EVALUATE_COUNT}": _evaluate_ms(big),
        f"assign_ms_{EVALUATE_COUNT}": _assign_ms(big),
        f"build_ms_{EVALUATE_COUNT}": build_ms,
    }


def test_pipeline_e2e(benchmark, record_result):
    rows = benchmark.pedantic(lambda: sweep(FULL_COUNTS), rounds=1, iterations=1)
    record_result("pipeline_e2e", render(rows))
    write_record(rows)

    by_count = {row["count"]: row for row in rows}
    # the staged kernels must win end-to-end, not just stage-by-stage
    assert by_count[4096]["speedup"] >= 2.0
    # and the 100k point must actually complete in sane time
    assert by_count[100352]["array_ms"] < 120_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="mid-size point only; assert array >= 2x object e2e (CI gate)",
    )
    args = parser.parse_args(argv)
    counts = SMOKE_COUNTS if args.smoke else FULL_COUNTS
    rows = sweep(counts)
    print(render(rows))
    if not args.smoke:
        write_record(rows)
    if args.smoke:
        speedup = rows[0]["speedup"]
        if speedup < 2.0:
            print(f"FAIL: array pipeline only {speedup:.1f}x at {rows[0]['count']}")
            return 1
        print(f"smoke OK: {speedup:.1f}x end-to-end at {rows[0]['count']} fingers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
