"""Parallel-tempering benchmark: population best vs single-chain SA.

For each benchmark circuit the same under-converged schedule is annealed
twice through the tempering coordinator:

``single``
    One chain (K=1) — plain SA run through the segment/round machinery.
``tempering``
    K=4 replica-exchange chains fanned out over 4 worker processes, so
    the extra chains ride on otherwise-idle cores and the *wall-clock*
    stays comparable to the single chain while the population explores
    4 staggered temperatures.

The gated metric is ``cost_ratio_<circuit>`` = tempering best Eq.-3 cost
/ single-chain best: deterministic at the pinned seed, and must stay
<= 1.0 (the baseline pins an absolute ceiling) — the population must
never lose to one chain at equal wall-clock.  Wall-clock figures are
reported but not gated (machine-dependent)::

    PYTHONPATH=src python benchmarks/bench_tempering.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List

from repro.exchange import SAParams
from repro.runtime import JobEngine, Telemetry
from repro.tune import TemperingConfig, run_tempering

#: Perf-ledger registration: the population must match or beat the single
#: chain (the baseline also pins cost_ratio <= 1.0 absolutely).
LEDGER_GATED = {"cost_ratio_circuit2": "lower", "cost_ratio_circuit3": "lower"}
LEDGER_SEED = 17

#: Deliberately under-converged schedule: short enough that a single
#: chain reliably leaves quality on the table for the population to find.
SCHEDULE = SAParams(
    initial_temp=0.03, final_temp=1e-3, cooling=0.9, moves_per_temp=40
)

CIRCUITS = (2, 3)
CHAINS = 4
SWAP_STRIDE = 2
LADDER_RATIO = 1.25


def _best_cost(engine, circuit: int, chains: int, seed: int) -> Dict[str, float]:
    config = TemperingConfig(
        chains=chains, swap_stride=SWAP_STRIDE, ladder_ratio=LADDER_RATIO
    )
    started = time.perf_counter()
    result = run_tempering(
        engine,
        circuit,
        config=config,
        schedule=SCHEDULE,
        seed=seed,
        grid=16,
        polish_passes=0,
    )
    return {
        "best_cost": result["sa"]["best_cost"],
        "seconds": time.perf_counter() - started,
        "swaps_accepted": result["tempering"]["swaps_accepted"],
    }


def measure(seed: int = LEDGER_SEED, jobs: int = CHAINS) -> Dict[str, float]:
    """Single-chain vs K-chain tempering on every benchmark circuit."""
    row: Dict[str, float] = {"chains": float(CHAINS), "seed": float(seed)}
    engine = JobEngine(jobs=jobs, telemetry=Telemetry())
    try:
        for circuit in CIRCUITS:
            single = _best_cost(engine, circuit, chains=1, seed=seed)
            multi = _best_cost(engine, circuit, chains=CHAINS, seed=seed)
            name = f"circuit{circuit}"
            row[f"single_cost_{name}"] = single["best_cost"]
            row[f"tempering_cost_{name}"] = multi["best_cost"]
            row[f"cost_ratio_{name}"] = (
                multi["best_cost"] / single["best_cost"]
                if single["best_cost"]
                else 1.0
            )
            row[f"single_seconds_{name}"] = single["seconds"]
            row[f"tempering_seconds_{name}"] = multi["seconds"]
            row[f"swaps_accepted_{name}"] = float(multi["swaps_accepted"])
    finally:
        engine.close()
    return row


def render(row: Dict[str, float]) -> str:
    lines = [
        f"K={int(row['chains'])} tempering vs single chain "
        f"(seed {int(row['seed'])}, schedule T0={SCHEDULE.initial_temp} "
        f"alpha={SCHEDULE.cooling} moves={SCHEDULE.moves_per_temp})"
    ]
    for circuit in CIRCUITS:
        name = f"circuit{circuit}"
        lines.append(
            f"{name}: single {row[f'single_cost_{name}']:.6f} "
            f"({row[f'single_seconds_{name}']:.2f}s)  "
            f"tempering {row[f'tempering_cost_{name}']:.6f} "
            f"({row[f'tempering_seconds_{name}']:.2f}s)  "
            f"ratio {row[f'cost_ratio_{name}']:.4f}  "
            f"swaps {int(row[f'swaps_accepted_{name}'])}"
        )
    return "\n".join(lines)


def _write_record(row: Dict[str, float]) -> None:
    from pathlib import Path

    from repro.obs.bench import write_bench_record

    results = Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    write_bench_record(
        results / "BENCH_tempering.json",
        "tempering",
        {key: round(value, 6) for key, value in row.items()},
        seed=LEDGER_SEED,
        context={
            "chains": CHAINS,
            "swap_stride": SWAP_STRIDE,
            "ladder_ratio": LADDER_RATIO,
            "circuits": [f"circuit{c}" for c in CIRCUITS],
        },
    )


def _problems(row: Dict[str, float]) -> List[str]:
    problems = []
    for circuit in CIRCUITS:
        ratio = row[f"cost_ratio_circuit{circuit}"]
        if ratio > 1.0:
            problems.append(
                f"circuit{circuit}: K={CHAINS} tempering cost is {ratio:.4f}x "
                "the single chain's — the population lost to one chain"
            )
    return problems


def ledger_metrics() -> Dict[str, float]:
    row = measure()
    return {key: round(value, 6) for key, value in row.items()}


def test_tempering_bench(record_result):
    row = measure()
    record_result("tempering", render(row))
    _write_record(row)
    assert not _problems(row), "; ".join(_problems(row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="same run, gate on the cost ratio (the CI mode)",
    )
    parser.add_argument("--seed", type=int, default=LEDGER_SEED)
    parser.add_argument("--jobs", type=int, default=CHAINS)
    args = parser.parse_args(argv)
    row = measure(seed=args.seed, jobs=args.jobs)
    print(render(row))
    problems = _problems(row)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("bench-tempering OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
