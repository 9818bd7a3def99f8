"""Exchange-kernel throughput: array backend vs the object model.

``bench_scaling`` sweeps the *assignment* step; this bench sweeps the
*exchange* step — the SA loop that dominates the co-design flow — far past
the paper's largest circuit (448 fingers).  For each design size it times
propose+apply+cost move batches on both backends and reports microseconds
per move and the speedup.  The object backend re-derives a dirtied side's
runs on every evaluation (O(rows x n) per move), so its per-move cost
grows with the design while the kernel's stays flat; the speedup therefore
*increases* with size.  The acceptance floor: >= 10x at 1792 fingers.

Also runnable without pytest as a CI smoke::

    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke

which sweeps only 448/1792, asserts array >= 2x object at 1792 and that
the polish from the 1792-finger DFA start swaps nothing (its screen finds
every legal swap uphill), and exits non-zero otherwise (< 30 s wall clock).

``ledger_metrics`` (``repro bench run --only kernel``) times the polish at
16,384 fingers from the DFA start, where a screened polish finds nothing
and so should cost a few array passes and no ``_swap`` call, and the
microseconds per move of one full default-schedule anneal (the annealer's
own loop, so the figure is what a co-design run pays per move).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

import numpy as np

from repro.assign import DFAAssigner, assign_design
from repro.circuits import CircuitSpec, build_design, table1_circuit
from repro.exchange import CachedExchangeCost, MoveGenerator, SAParams, SimulatedAnnealer
from repro.kernels import ArrayExchangeKernel

FULL_COUNTS = (448, 1792, 7168, 14336)
SMOKE_COUNTS = (448, 1792)

#: Move budget for the array kernel (O(1)/move: generous budgets are cheap).
ARRAY_MOVES = 4000
#: Per-size move budgets for the object backend, shrinking with size so the
#: largest sweep points stay minutes-not-hours (its per-move cost is
#: O(rows x n)); microseconds/move stays comparable regardless of budget.
OBJECT_MOVES = {448: 1500, 1792: 400, 7168: 60, 14336: 20}

#: Perf-ledger point: ``polish(POLISH_PASSES)`` from the DFA start at
#: ``LEDGER_COUNT`` fingers, the median of ``LEDGER_REPEATS`` fresh kernels.
LEDGER_COUNT = 16384
LEDGER_REPEATS = 3
LEDGER_SEED = 0
LEDGER_GATED = {f"polish_ms_{LEDGER_COUNT}": "lower", "anneal_us_per_move": "lower"}
POLISH_PASSES = 20
#: Per-move ledger point: a default ``SAParams`` anneal of Table-1 circuit
#: ``ANNEAL_CIRCUIT`` at ``ANNEAL_TIERS`` tiers (so the omega term runs)
#: from the DFA start, the median of ``LEDGER_REPEATS`` fresh kernels.
ANNEAL_CIRCUIT = 5
ANNEAL_TIERS = 4


def _timed_walk(propose, apply, cost, moves: int, seed: int = 0) -> float:
    """Run a propose/apply/cost walk, returning microseconds per move."""
    rng = random.Random(seed)
    applied = 0
    start = time.perf_counter()
    while applied < moves:
        move = propose(rng)
        if move is None:
            continue
        apply(move)
        cost()
        applied += 1
    return (time.perf_counter() - start) / moves * 1e6


def measure_point(count: int, object_moves: int) -> dict:
    """Both backends on one design size; returns the comparison row."""
    design = build_design(
        CircuitSpec(name=f"kernel{count}", finger_count=count), seed=0
    )
    baseline = assign_design(DFAAssigner(), design)

    kernel = ArrayExchangeKernel(design, baseline)
    array_us = _timed_walk(kernel.propose, kernel.apply, kernel.cost, ARRAY_MOVES)

    working = {side: a.copy() for side, a in baseline.items()}
    cost = CachedExchangeCost(design, baseline)
    generator = MoveGenerator(design, working)

    def object_apply(move) -> None:
        generator.apply(move)
        cost.mark_dirty(move.side)

    object_us = _timed_walk(
        generator.propose, object_apply, lambda: cost.total(working), object_moves
    )
    return {
        "count": count,
        "object_us": object_us,
        "array_us": array_us,
        "speedup": object_us / array_us,
    }


def polish_from_dfa(count: int):
    """``(milliseconds, swaps)`` of one polish from the DFA start."""
    design = build_design(
        CircuitSpec(name=f"kernel{count}", finger_count=count), seed=LEDGER_SEED
    )
    kernel = ArrayExchangeKernel(design, assign_design(DFAAssigner(), design))
    start = time.perf_counter()
    kernel.polish(POLISH_PASSES)
    return (time.perf_counter() - start) * 1000.0, kernel.swap_count


def anneal_us_per_move() -> float:
    """Microseconds per proposed move of one default-schedule anneal."""
    design = build_design(
        table1_circuit(ANNEAL_CIRCUIT, tier_count=ANNEAL_TIERS), seed=LEDGER_SEED
    )
    kernel = ArrayExchangeKernel(design, assign_design(DFAAssigner(), design))
    start = time.perf_counter()
    stats = SimulatedAnnealer(SAParams()).optimize(
        kernel.propose,
        kernel.apply,
        kernel.undo,
        kernel.cost,
        seed=LEDGER_SEED,
        snapshot=kernel.snapshot,
    )
    return (time.perf_counter() - start) * 1e6 / stats.proposed


def ledger_metrics() -> dict:
    runs = [polish_from_dfa(LEDGER_COUNT) for __ in range(LEDGER_REPEATS)]
    milliseconds = float(np.median([ms for ms, __ in runs]))
    per_move = [anneal_us_per_move() for __ in range(LEDGER_REPEATS)]
    return {
        f"polish_ms_{LEDGER_COUNT}": round(milliseconds, 3),
        f"polish_swaps_{LEDGER_COUNT}": max(swaps for __, swaps in runs),
        "anneal_us_per_move": round(float(np.median(per_move)), 3),
    }


def sweep(counts) -> list:
    return [measure_point(count, OBJECT_MOVES[count]) for count in counts]


def render(rows) -> str:
    lines = ["fingers   object us/move   array us/move   speedup"]
    for row in rows:
        lines.append(
            f"{row['count']:>7}   {row['object_us']:>14.1f}   "
            f"{row['array_us']:>13.2f}   {row['speedup']:>6.1f}x"
        )
    return "\n".join(lines)


def write_record(rows) -> None:
    """Persist the sweep as a ``repro stats --compare``-able bench record."""
    from pathlib import Path

    from repro.obs.bench import write_bench_record

    metrics = {}
    for row in rows:
        count = row["count"]
        metrics[f"object_us_{count}"] = round(row["object_us"], 3)
        metrics[f"array_us_{count}"] = round(row["array_us"], 3)
        metrics[f"speedup_{count}"] = round(row["speedup"], 2)
    results = Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    write_bench_record(
        results / "BENCH_kernel.json",
        "kernel_speedup",
        metrics,
        seed=0,
        context={
            "counts": [row["count"] for row in rows],
            "array_moves": ARRAY_MOVES,
        },
    )


def test_kernel_speedup(benchmark, record_result):
    rows = benchmark.pedantic(lambda: sweep(FULL_COUNTS), rounds=1, iterations=1)
    record_result("kernel_speedup", render(rows))
    write_record(rows)

    by_count = {row["count"]: row for row in rows}
    # the ISSUE's acceptance floor, far below what the kernel delivers
    assert by_count[1792]["speedup"] >= 10.0
    # the speedup must grow with design size (the whole point of O(1) moves)
    assert by_count[14336]["speedup"] > by_count[448]["speedup"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="448/1792 only; assert array >= 2x object at 1792 (CI gate)",
    )
    args = parser.parse_args(argv)
    counts = SMOKE_COUNTS if args.smoke else FULL_COUNTS
    rows = sweep(counts)
    print(render(rows))
    write_record(rows)
    if args.smoke:
        speedup = next(r["speedup"] for r in rows if r["count"] == 1792)
        if speedup < 2.0:
            print(f"FAIL: array backend only {speedup:.1f}x at 1792 fingers")
            return 1
        __, swaps = polish_from_dfa(1792)
        if swaps:
            print(f"FAIL: the polish from the DFA start made {swaps} swaps")
            return 1
        print(f"smoke OK: {speedup:.1f}x at 1792 fingers, polish swapped nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
