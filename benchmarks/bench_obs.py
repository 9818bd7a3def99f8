"""Observability overhead gate: the disabled path must be (near) free.

The SA move loop is the hottest code in the repo, and PR 4 threaded
telemetry through it (span context, delta histogram, step events).  All of
that is gated on ``telemetry.enabled``, hoisted out of the inner loop —
this bench proves the gate holds by timing the *instrumented*
``SimulatedAnnealer.optimize`` (with the default no-op telemetry active)
against a hand-rolled replica of the same loop with every telemetry and
metrics line deleted, on the same array kernel and the same rng stream.

Acceptance: instrumented/bare <= 1.02, as the median of per-pair ratios.
The repeats run in interleaved pairs (bare then instrumented, then the
other way round), so a burst of host load slows both sides of a pair
instead of one whole side.  Runnable standalone as the ``make bench-obs``
CI gate::

    PYTHONPATH=src python benchmarks/bench_obs.py

and as a pytest bench (``test_obs_overhead``), which alone writes the
overhead figures to ``results/BENCH_obs.json``.  Wall clock well under 30 s.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time

from repro.assign import DFAAssigner, assign_design
from repro.circuits import CircuitSpec, build_design
from repro.exchange import SAParams, SAStats, SimulatedAnnealer
from repro.exchange.annealer import BEST_IMPROVEMENT_EPS
from repro.kernels import ArrayExchangeKernel

#: Gate: disabled-telemetry slowdown over the bare loop.  Set between the
#: unmodified loop (0.0-1.4% in ten runs on a 2-CPU x86_64 host) and one
#: extra ``get_telemetry()`` call per move (2.1-4.5% in ten runs).
MAX_OVERHEAD = 0.02

#: Design size and schedule: ~5k moves, ~30 ms per run on the array kernel.
#: Short runs keep both halves of a pair inside one phase of host speed,
#: which on a shared host can change several times a second.
FINGER_COUNT = 448
PARAMS = SAParams(initial_temp=0.03, final_temp=1e-3, cooling=0.85, moves_per_temp=250)
#: Paired repeats, alternating which loop runs first (~6 s in all).
REPEATS = 101
SEED = 0

#: Perf-ledger registration (``repro bench run``): timings gate relatively,
#: the overhead ratio gates absolutely via the committed baseline.
LEDGER_GATED = {"overhead": "lower", "instrumented_us_per_move": "lower"}
LEDGER_SEED = SEED


def _bare_anneal(kernel, params: SAParams, seed: int) -> SAStats:
    """``SimulatedAnnealer.optimize`` with every telemetry line deleted.

    Same rng stream, same Metropolis rule, same snapshot policy, same
    ``SAStats`` bookkeeping — this is the pre-observability loop, i.e. the
    floor that "overhead with telemetry disabled" is measured against.
    Only the lines PR 4 (and the earlier telemetry hooks) added are gone:
    no ``get_telemetry()``, no ``enabled``/histogram lookups, no
    ``sa.begin``/``sa.step``/``sa.end`` emits.
    """
    rng = random.Random(seed)
    stats = SAStats()
    current_cost = kernel.cost()
    stats.initial_cost = current_cost
    stats.best_cost = current_cost
    best_snapshot = kernel.snapshot()
    temperature = params.initial_temp
    while temperature > params.final_temp:
        step_proposed = step_accepted = 0
        for __ in range(params.moves_per_temp):
            stats.proposed += 1
            step_proposed += 1
            move = kernel.propose(rng)
            if move is None:
                stats.infeasible += 1
                continue
            kernel.apply(move)
            new_cost = kernel.cost()
            delta = new_cost - current_cost
            if not math.isfinite(delta):
                kernel.undo(move)
                stats.nonfinite_rejected += 1
                continue
            uniform = rng.random()
            if delta <= 0 or uniform < math.exp(-delta / temperature):
                current_cost = new_cost
                stats.accepted += 1
                step_accepted += 1
                if delta > BEST_IMPROVEMENT_EPS:
                    stats.accepted_uphill += 1
                if current_cost < stats.best_cost - BEST_IMPROVEMENT_EPS:
                    stats.best_cost = current_cost
                    best_snapshot = kernel.snapshot()
            else:
                kernel.undo(move)
        stats.cost_trace.append(current_cost)
        temperature *= params.cooling
    stats.final_cost = current_cost
    stats.best_snapshot = best_snapshot
    return stats


def _fresh_kernel(design, baseline):
    return ArrayExchangeKernel(design, {s: a.copy() for s, a in baseline.items()})


def measure() -> dict:
    """Paired timings of both loops; returns the comparison row.

    ``overhead`` is the median of the ``REPEATS`` per-pair ratios minus
    one; the reported times are each side's minimum.
    """
    design = build_design(
        CircuitSpec(name=f"obs{FINGER_COUNT}", finger_count=FINGER_COUNT), seed=0
    )
    baseline = assign_design(DFAAssigner(), design)
    annealer = SimulatedAnnealer(PARAMS)

    def timed(fn) -> float:
        kernel = _fresh_kernel(design, baseline)
        start = time.perf_counter()
        fn(kernel)
        return time.perf_counter() - start

    def run_instrumented(kernel):
        return annealer.optimize(
            propose=kernel.propose,
            apply=kernel.apply,
            undo=kernel.undo,
            cost=kernel.cost,
            seed=SEED,
            snapshot=kernel.snapshot,
        )

    # Warm both paths once (imports, first-call caches) before timing.
    _bare_anneal(_fresh_kernel(design, baseline), PARAMS, SEED)
    run_instrumented(_fresh_kernel(design, baseline))

    def run_bare(kernel):
        return _bare_anneal(kernel, PARAMS, SEED)

    bare, instrumented = [], []
    for repeat in range(REPEATS):
        if repeat % 2:
            instrumented.append(timed(run_instrumented))
            bare.append(timed(run_bare))
        else:
            bare.append(timed(run_bare))
            instrumented.append(timed(run_instrumented))
    bare_s, instrumented_s = min(bare), min(instrumented)
    moves = PARAMS.total_moves()
    return {
        "bare_s": bare_s,
        "instrumented_s": instrumented_s,
        "overhead": statistics.median(i / b for i, b in zip(instrumented, bare)) - 1.0,
        "moves": moves,
        "bare_us_per_move": bare_s / moves * 1e6,
        "instrumented_us_per_move": instrumented_s / moves * 1e6,
    }


def render(row: dict) -> str:
    return (
        f"bare loop:         {row['bare_s'] * 1e3:8.1f} ms "
        f"({row['bare_us_per_move']:.2f} us/move)\n"
        f"instrumented loop: {row['instrumented_s'] * 1e3:8.1f} ms "
        f"({row['instrumented_us_per_move']:.2f} us/move)\n"
        f"overhead with telemetry disabled: {row['overhead']:+.1%} "
        f"(median of {REPEATS} paired ratios; gate: <= {MAX_OVERHEAD:.0%})"
    )


def _write_record(row: dict) -> None:
    from pathlib import Path

    from repro.obs.bench import write_bench_record

    results = Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    write_bench_record(
        results / "BENCH_obs.json",
        "obs_overhead",
        {k: round(v, 6) for k, v in row.items()},
        seed=SEED,
        context={"fingers": FINGER_COUNT, "repeats": REPEATS},
    )


def ledger_metrics() -> dict:
    row = measure()
    return {k: round(v, 6) for k, v in row.items()}


def test_obs_overhead(record_result):
    row = measure()
    record_result("obs_overhead", render(row))
    _write_record(row)
    assert row["overhead"] <= MAX_OVERHEAD, render(row)


def main(argv=None) -> int:
    row = measure()
    print(render(row))
    if row["overhead"] > MAX_OVERHEAD:
        print("FAIL: observability null path exceeds the overhead gate")
        return 1
    print("bench-obs OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
