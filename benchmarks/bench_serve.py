"""Serving-layer benchmark: latency percentiles and sustained req/s.

Drives an in-process daemon (real sockets, real wire schema, warm worker
pool) through the three request mixes that exercise its distinct paths:

``cold``
    N *distinct* jobs against an empty cache — execution throughput:
    admission + micro-batching + warm-pool fan-out.
``hot``
    The same N jobs again — the cache-hit path: admission + memory/disk
    lookup, no compute.
``dup``
    N concurrent *identical* requests for a job the daemon has never
    seen — the dedup path: exactly one execution, N-1 joins.

Each mix reports p50/p99 latency and req/s; the pytest run writes the
record to ``results/BENCH_serve.json`` for ``repro stats --compare``
regression diffing.  ``--smoke`` shrinks the mix sizes and gates on a conservative
hot-cache req/s floor plus the dedup single-execution invariant —
that is the ``make bench-serve`` CI check::

    PYTHONPATH=src python benchmarks/bench_serve.py --smoke
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

from repro.serve import ServeClient, ServeConfig, ServeHandle

#: Gate (--smoke): hot-cache serving must sustain at least this many
#: requests per second.  The measured figure is typically 10-50x higher;
#: the floor only catches pathological regressions (e.g. the cache path
#: accidentally re-executing).
MIN_HOT_RPS = 5.0

#: Perf-ledger registration: invariants (executed counts) gate absolutely,
#: hot-path throughput gates relatively with a wide margin.
LEDGER_GATED = {"hot_rps": "higher", "hot_executed": "lower",
                "dup_executed": "lower"}
LEDGER_SEED = 0

#: Tiny-but-real co-design job: small enough that serving overhead is
#: visible, real enough that the cold mix measures the whole stack.
BASE_PARAMS = {
    "spec": {
        "name": "bench-serve",
        "finger_count": 16,
        "quadrant_count": 4,
        "rows_per_quadrant": 2,
    },
    "design_seed": 1,
    "grid": 16,
    "initial_temp": 1.0,
    "final_temp": 0.4,
    "cooling": 0.5,
    "moves_per_temp": 2,
}


def _percentiles(latencies: List[float]) -> Tuple[float, float]:
    ordered = sorted(latencies)
    if not ordered:
        return 0.0, 0.0
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    return p50, p99


def _fire(port: int, requests: List[Tuple[dict, int]],
          concurrency: int) -> Tuple[List[float], float]:
    """Issue the requests from a thread pool; returns (latencies, wall)."""

    def one(entry: Tuple[dict, int]) -> float:
        params, seed = entry
        client = ServeClient(port=port, timeout=300.0)
        start = time.perf_counter()
        status, envelope = client.submit(
            "design_run", params, seed=seed, raise_on_error=False
        )
        if status != 200 or envelope.get("status") != "done":
            raise RuntimeError(
                f"bench request failed: HTTP {status} {envelope.get('status')}"
                f" {envelope.get('error')}"
            )
        return time.perf_counter() - start

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        latencies = list(pool.map(one, requests))
    return latencies, time.perf_counter() - started


def measure(jobs: int = 24, concurrency: int = 8,
            workers: int = 2) -> Dict[str, float]:
    """All three mixes against one daemon; returns the metrics row."""
    distinct = [(BASE_PARAMS, seed) for seed in range(100, 100 + jobs)]
    duplicate = [(dict(BASE_PARAMS, design_seed=2), 7)] * jobs
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        config = ServeConfig(
            port=0, workers=workers, cache_dir=tmp,
            queue_limit=max(64, jobs * 2), announce=False,
        )
        with ServeHandle(config) as handle:
            client = ServeClient(port=handle.port, timeout=300.0)
            # Warm the pool + import caches off the clock.
            client.submit("design_run", dict(BASE_PARAMS, design_seed=3),
                          seed=1)

            cold_lat, cold_wall = _fire(handle.port, distinct, concurrency)
            executed_cold = client.health()["counters"]["executed"]

            hot_lat, hot_wall = _fire(handle.port, distinct, concurrency)
            executed_hot = client.health()["counters"]["executed"]

            dup_lat, dup_wall = _fire(handle.port, duplicate, concurrency)
            counters = client.health()["counters"]

    cold_p50, cold_p99 = _percentiles(cold_lat)
    hot_p50, hot_p99 = _percentiles(hot_lat)
    dup_p50, dup_p99 = _percentiles(dup_lat)
    return {
        "jobs": float(jobs),
        "concurrency": float(concurrency),
        "workers": float(workers),
        "cold_p50_ms": cold_p50 * 1e3,
        "cold_p99_ms": cold_p99 * 1e3,
        "cold_rps": jobs / cold_wall,
        "hot_p50_ms": hot_p50 * 1e3,
        "hot_p99_ms": hot_p99 * 1e3,
        "hot_rps": jobs / hot_wall,
        "dup_p50_ms": dup_p50 * 1e3,
        "dup_p99_ms": dup_p99 * 1e3,
        "dup_rps": jobs / dup_wall,
        # Executions per mix: cold runs every job, hot runs none (pure
        # cache hits), the duplicate burst runs exactly one.
        "cold_executed": float(executed_cold - 1),  # minus the warmup job
        "hot_executed": float(executed_hot - executed_cold),
        "dup_executed": float(counters["executed"] - executed_hot),
        "deduped": float(counters["deduped"]),
    }


def render(row: Dict[str, float]) -> str:
    lines = [
        f"{int(row['jobs'])} jobs, concurrency {int(row['concurrency'])}, "
        f"{int(row['workers'])} warm worker(s)",
    ]
    for mix in ("cold", "hot", "dup"):
        lines.append(
            f"{mix:>4}: p50 {row[f'{mix}_p50_ms']:8.1f} ms   "
            f"p99 {row[f'{mix}_p99_ms']:8.1f} ms   "
            f"{row[f'{mix}_rps']:7.1f} req/s   "
            f"executed {int(row[f'{mix}_executed'])}"
        )
    return "\n".join(lines)


def _write_record(row: Dict[str, float]) -> None:
    from pathlib import Path

    from repro.obs.bench import write_bench_record

    results = Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    write_bench_record(
        results / "BENCH_serve.json",
        "serve",
        {key: round(value, 6) for key, value in row.items()},
        seed=0,
        context={"mixes": ["cold", "hot", "dup"]},
    )


def _problems(row: Dict[str, float]) -> List[str]:
    problems = []
    if row["hot_rps"] < MIN_HOT_RPS:
        problems.append(
            f"hot-cache serving sustained {row['hot_rps']:.1f} req/s, "
            f"below the {MIN_HOT_RPS:.0f} req/s floor"
        )
    if row["hot_executed"] != 0:
        problems.append(
            f"hot mix re-executed {int(row['hot_executed'])} cached job(s)"
        )
    if row["dup_executed"] != 1:
        problems.append(
            f"duplicate burst executed {int(row['dup_executed'])} job(s), "
            "expected exactly 1 (dedup broken)"
        )
    return problems


def ledger_metrics() -> Dict[str, float]:
    row = measure(jobs=8, concurrency=4)
    return {key: round(value, 6) for key, value in row.items()}


def test_serve_bench(record_result):
    row = measure(jobs=8, concurrency=4)
    record_result("serve", render(row))
    _write_record(row)
    assert not _problems(row), "; ".join(_problems(row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small mixes + req/s floor gate (the CI mode)",
    )
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs is not None else (8 if args.smoke else 24)
    row = measure(jobs=jobs, concurrency=args.concurrency,
                  workers=args.workers)
    print(render(row))
    problems = _problems(row)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("bench-serve OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
