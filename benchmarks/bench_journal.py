"""Durability overhead gate: journaling and checkpointing must be near-free.

PR 7 added two durability mechanisms on hot paths, and both promise to
be cheap enough to leave on everywhere:

``journal``
    ``repro serve --journal`` appends one fsync'd record per job
    transition.  The *hot* request path (registry/cache hits) never
    touches the journal at all, so a journaled daemon must sustain hot
    req/s within 10% of an unjournaled one.  Both daemons are measured
    in this process, best-of-N hot passes, so the gate compares like
    with like rather than trusting a figure recorded on other hardware.
``checkpoint``
    Periodic atomic SA checkpoints (:class:`SACheckpointer`) on a
    table3-style array-kernel anneal.  At a realistic cadence (a
    handful of saves per run, ~1 ms durable write each) the anneal must
    cost no more than 5% extra walltime.  Plain and checkpointed runs
    are interleaved and each takes its min-of-N, so a turbo/noise drift
    mid-bench hits both sides equally.

The pytest run writes ``results/BENCH_journal.json`` for ``repro stats
--compare`` regression diffing.  The gates always run — this is the
``make bench-journal`` CI check; ``--smoke`` only shrinks the sizes::

    PYTHONPATH=src python benchmarks/bench_journal.py
"""

from __future__ import annotations

from repro.assign import assign_design
import argparse
import math
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.assign import DFAAssigner
from repro.circuits import CircuitSpec, build_design
from repro.exchange import FingerPadExchanger, SAParams
from repro.exchange.checkpoint import SACheckpointer
from repro.runtime.journal import JobJournal
from repro.serve import ServeClient, ServeConfig, ServeHandle

#: Gate: hot-cache req/s lost to running with a journal.
MAX_JOURNAL_OVERHEAD = 0.10

#: Gate: anneal walltime added by periodic durable checkpoints.
MAX_CHECKPOINT_OVERHEAD = 0.05

#: Same tiny-but-real co-design job as bench_serve: small enough that
#: serving overhead dominates, so a journal regression is visible.
BASE_PARAMS = {
    "spec": {
        "name": "bench-journal",
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

#: Table3-scale anneal for the checkpoint side: ~144k moves, ~1 s on
#: the array kernel — long enough that the ~2 ms fixed cost of a durable
#: save amortizes the way it does on a real run (a save every ~18k moves,
#: not every few hundred), short enough to repeat for a min-of-N.
FINGER_COUNT = 448
PARAMS = SAParams(
    initial_temp=0.03, final_temp=1e-4, cooling=0.85, moves_per_temp=4000
)
SAVES_PER_RUN = 8
SEED = 0


def _fire(port: int, requests: List[Tuple[dict, int]],
          concurrency: int) -> float:
    """Issue the requests from a thread pool; returns the wall time."""

    def one(entry: Tuple[dict, int]) -> None:
        params, seed = entry
        client = ServeClient(port=port, timeout=300.0)
        status, envelope = client.submit(
            "design_run", params, seed=seed, raise_on_error=False
        )
        if status != 200 or envelope.get("status") != "done":
            raise RuntimeError(
                f"bench request failed: HTTP {status} {envelope.get('status')}"
                f" {envelope.get('error')}"
            )

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        list(pool.map(one, requests))
    return time.perf_counter() - started


def _serve_rates(jobs: int, concurrency: int, workers: int, hot_passes: int,
                 journal: bool) -> Dict[str, float]:
    """Cold + best-of-N hot req/s for one daemon configuration."""
    distinct = [(BASE_PARAMS, seed) for seed in range(100, 100 + jobs)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
        journal_path: Optional[str] = (
            str(Path(tmp) / "jobs.wal") if journal else None
        )
        config = ServeConfig(
            port=0, workers=workers, cache_dir=str(Path(tmp) / "cache"),
            queue_limit=max(64, jobs * 2), announce=False,
            journal=journal_path,
        )
        with ServeHandle(config) as handle:
            client = ServeClient(port=handle.port, timeout=300.0)
            # Warm the pool + import caches off the clock.
            client.submit("design_run", dict(BASE_PARAMS, design_seed=3),
                          seed=1)
            cold_wall = _fire(handle.port, distinct, concurrency)
            hot_rps = 0.0
            for __ in range(hot_passes):
                hot_wall = _fire(handle.port, distinct, concurrency)
                hot_rps = max(hot_rps, jobs / hot_wall)
            # Total executions including the warmup job — the journal
            # must have settled every one of them.
            executed = client.health()["counters"]["executed"]
        settled = -1.0
        if journal_path is not None:
            with JobJournal(journal_path, compact_bytes=None) as wal:
                settled = float(len(wal.settled_records()))
    return {
        "cold_rps": jobs / cold_wall,
        "hot_rps": hot_rps,
        "executed": float(executed),
        "settled": settled,
    }


def _anneal_times(repeats: int) -> Dict[str, float]:
    """Interleaved min-of-N walltimes: plain vs durably checkpointed."""
    design = build_design(
        CircuitSpec(name=f"bench-journal{FINGER_COUNT}",
                    finger_count=FINGER_COUNT),
        seed=0,
    )
    baseline = assign_design(DFAAssigner(), design)

    def run(checkpoint: Optional[SACheckpointer]) -> float:
        exchanger = FingerPadExchanger(
            design, params=PARAMS, polish_passes=0,
            checkpoint=checkpoint,
        )
        start = time.perf_counter()
        exchanger.run(
            {side: a.copy() for side, a in baseline.items()}, seed=SEED
        )
        return time.perf_counter() - start

    interval = max(1, PARAMS.total_moves() // SAVES_PER_RUN)
    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
        path = Path(tmp) / "sa.ckpt"

        def checkpointer() -> SACheckpointer:
            # A fresh checkpointer per run; a completed anneal clears its
            # file, so every timed run anneals from scratch (no resume).
            return SACheckpointer(path, interval=interval, durable=True)

        # Warm both paths once (imports, first-call caches) before timing.
        run(None)
        run(checkpointer())
        plain_s = ckpt_s = math.inf
        for __ in range(repeats):
            plain_s = min(plain_s, run(None))
            ckpt_s = min(ckpt_s, run(checkpointer()))
    return {
        "moves": float(PARAMS.total_moves()),
        "interval": float(interval),
        "plain_anneal_s": plain_s,
        "checkpoint_anneal_s": ckpt_s,
        "checkpoint_overhead": ckpt_s / plain_s - 1.0,
    }


def measure(jobs: int = 12, concurrency: int = 8, workers: int = 2,
            hot_passes: int = 5, repeats: int = 3) -> Dict[str, float]:
    plain = _serve_rates(jobs, concurrency, workers, hot_passes,
                         journal=False)
    journaled = _serve_rates(jobs, concurrency, workers, hot_passes,
                             journal=True)
    anneal = _anneal_times(repeats)
    return {
        "jobs": float(jobs),
        "concurrency": float(concurrency),
        "workers": float(workers),
        "hot_passes": float(hot_passes),
        "repeats": float(repeats),
        "plain_cold_rps": plain["cold_rps"],
        "plain_hot_rps": plain["hot_rps"],
        "journal_cold_rps": journaled["cold_rps"],
        "journal_hot_rps": journaled["hot_rps"],
        # Positive = the journaled daemon is slower on the hot path.
        "journal_hot_overhead": 1.0 - journaled["hot_rps"] / plain["hot_rps"],
        "journal_executed": journaled["executed"],
        "journal_settled": journaled["settled"],
        **anneal,
    }


def render(row: Dict[str, float]) -> str:
    return (
        f"hot serve path ({int(row['jobs'])} jobs, best of "
        f"{int(row['hot_passes'])} passes):\n"
        f"  plain daemon:     {row['plain_hot_rps']:7.1f} req/s "
        f"(cold {row['plain_cold_rps']:.1f})\n"
        f"  journaled daemon: {row['journal_hot_rps']:7.1f} req/s "
        f"(cold {row['journal_cold_rps']:.1f})\n"
        f"  hot req/s lost to the journal: "
        f"{row['journal_hot_overhead']:+.1%} "
        f"(gate: <= {MAX_JOURNAL_OVERHEAD:.0%})\n"
        f"checkpointed anneal ({int(row['moves'])} moves, save every "
        f"{int(row['interval'])}):\n"
        f"  plain:        {row['plain_anneal_s'] * 1e3:8.1f} ms\n"
        f"  checkpointed: {row['checkpoint_anneal_s'] * 1e3:8.1f} ms\n"
        f"  walltime added by durable checkpoints: "
        f"{row['checkpoint_overhead']:+.1%} "
        f"(gate: <= {MAX_CHECKPOINT_OVERHEAD:.0%})"
    )


def _write_record(row: Dict[str, float]) -> None:
    from repro.obs.bench import write_bench_record

    results = Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    write_bench_record(
        results / "BENCH_journal.json",
        "journal_overhead",
        {key: round(value, 6) for key, value in row.items()},
        seed=SEED,
        context={
            "fingers": FINGER_COUNT,
            "saves_per_run": SAVES_PER_RUN,
            "gates": {
                "journal_hot_overhead": MAX_JOURNAL_OVERHEAD,
                "checkpoint_overhead": MAX_CHECKPOINT_OVERHEAD,
            },
        },
    )


def _problems(row: Dict[str, float]) -> List[str]:
    problems = []
    if row["journal_hot_overhead"] > MAX_JOURNAL_OVERHEAD:
        problems.append(
            f"journaled daemon lost {row['journal_hot_overhead']:.1%} of the "
            f"hot req/s ({row['journal_hot_rps']:.1f} vs "
            f"{row['plain_hot_rps']:.1f}), above the "
            f"{MAX_JOURNAL_OVERHEAD:.0%} gate"
        )
    if row["checkpoint_overhead"] > MAX_CHECKPOINT_OVERHEAD:
        problems.append(
            f"durable checkpoints added {row['checkpoint_overhead']:.1%} "
            f"anneal walltime, above the {MAX_CHECKPOINT_OVERHEAD:.0%} gate"
        )
    if row["journal_settled"] != row["journal_executed"]:
        problems.append(
            f"journal settled {int(row['journal_settled'])} records but the "
            f"daemon executed {int(row['journal_executed'])} jobs — the "
            "bench did not measure a journaled path"
        )
    return problems


def test_journal_bench(record_result):
    row = measure(jobs=8, concurrency=4, hot_passes=3, repeats=4)
    record_result("journal_overhead", render(row))
    _write_record(row)
    assert not _problems(row), "; ".join(_problems(row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrink the mixes (the gates run either way)",
    )
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs is not None else (8 if args.smoke else 12)
    repeats = args.repeats if args.repeats is not None else (
        4 if args.smoke else 6
    )
    row = measure(jobs=jobs, concurrency=args.concurrency,
                  workers=args.workers, repeats=repeats)
    print(render(row))
    problems = _problems(row)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("bench-journal OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
