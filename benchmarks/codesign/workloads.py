"""Child side of the co-design benchmark: one workload in one fresh process.

``run.py`` starts this script once per run, so ``peak_rss_mb`` belongs to
one workload.  An untraced run also starts it with ``--setup-only`` once
after each of its first passes, so every set-up sample pays the real
import and build cost and the samples spread over the same minutes as
the passes.  It prints one JSON object as the last line of its standard
output.

    python3 workloads.py --workload synth_16k --seed 0 --seconds 20 --trace 0
    python3 workloads.py --workload synth_16k --seed 0 --seconds 20 --setup-only

The checkout's ``src`` must be on ``PYTHONPATH``; ``run.py`` sets it.
Nothing from ``repro`` is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

#: Set-up samples per untraced run, the run's own set-up included;
#: ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Longest one set-up sample may take before the run fails.
SETUP_TIMEOUT_S = 60.0

#: workload -> (kind, designs, warm-up design).  A design is a Table-1
#: ``(index, tiers)`` pair or a synthetic finger count.  ``flow`` runs
#: ``api.run`` on each design; ``evaluate`` runs ``api.assign`` +
#: ``api.evaluate`` and no exchange.  The warm-up design resolves to the
#: workload's backend: 32 nets to the object path (below the 512-net
#: threshold), 1,792 to the array path.  Why each workload exists is in
#: README.md.
WORKLOADS = {
    "paper_circuits": ("flow", ((1, 1), (1, 4), (2, 1), (2, 4)), 32),
    "synth_16k": ("flow", (16_384,), 1_792),
    "synth_32k": ("flow", (32_768,), 1_792),
    "assign_evaluate": ("evaluate", (16_384, 100_352), 1_792),
}

#: Assigners and power-grid sizes the ``evaluate`` kind sweeps per design.
METHODS = ("ifa", "dfa", "random")
GRIDS = (32, 96)
#: Assigners whose output quality is reported.  The random assigner is
#: timed and checked, but its density is a property of its seed (25 to 36
#: wires at 16k fingers across seeds 1-5), not of the code.
QUALITY_METHODS = ("ifa", "dfa")


def make_design(entry, seed: int):
    """Build one ``WORKLOADS`` design entry with the run's seed."""
    from repro.circuits import CircuitSpec, build_design, table1_circuit

    if isinstance(entry, tuple):
        spec = table1_circuit(entry[0], tier_count=entry[1])
    else:
        spec = CircuitSpec(name=f"synth{entry}", finger_count=entry)
    return build_design(spec, seed=seed)


def warm_up(workload: str, seed: int) -> None:
    """One call on a small design that resolves to the workload's backend.

    It loads the lazily imported modules (SciPy among them) so the first
    timed pass does not pay for them.  The anneal schedule is cut short:
    the warm-up only has to run the code, not to optimize.
    """
    import repro.api as api
    from repro.exchange import SAParams

    kind, __, fingers = WORKLOADS[workload]
    design = make_design(fingers, seed)
    if kind == "flow":
        api.run(
            design,
            sa_params=SAParams(initial_temp=0.03, final_temp=0.01, moves_per_temp=20),
            seed=seed,
        )
    else:
        assigned = api.assign(design, "dfa", seed=seed)
        api.evaluate(design, assigned.assignments, grid=GRIDS[0])


# -- one pass ------------------------------------------------------------------


def _call(fn, *args, **kwargs):
    """Run one API call; a raised exception is a failed call, not a crash."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - the benchmark counts every failure
        traceback.print_exc(file=sys.stderr)
        return None


def flow_pass(api, designs, seed) -> list:
    """One ``api.run`` per design; returns ``[(design, RunResult|None)]``."""
    return [(design, _call(api.run, design, seed=seed)) for design in designs]


def evaluate_pass(api, designs, seed) -> list:
    """``api.assign`` per method, then ``api.evaluate`` per grid.

    Returns ``[(design, method, AssignResult|None, [EvaluateResult|None])]``.
    """
    calls = []
    for design in designs:
        for method in METHODS:
            assigned = _call(api.assign, design, method, seed=seed)
            evaluated = [
                _call(api.evaluate, design, assigned.assignments, grid=grid)
                if assigned is not None
                else None
                for grid in GRIDS
            ]
            calls.append((design, method, assigned, evaluated))
    return calls


PASSES = {"flow": flow_pass, "evaluate": evaluate_pass}


# -- checks and quality --------------------------------------------------------


def orders_digest(assignments) -> str:
    """SHA-256 of a design's final finger orders."""
    orders = sorted((side.value, list(a.order)) for side, a in assignments.items())
    return hashlib.sha256(json.dumps(orders).encode()).hexdigest()


def _assignments_ok(design, assignments) -> bool:
    from repro.verify import check_assignments

    return check_assignments(design, assignments, deep=False).ok


def _power_ok(values: dict) -> bool:
    from repro.verify import check_power_values

    return check_power_values(values).ok


def check_pass(kind: str, outputs: list) -> list:
    """Per call: its orders digest, or ``None`` when it raised or failed a check.

    ``flow`` passes make one call per design; ``evaluate`` passes make one
    ``assign`` call and one ``evaluate`` call per grid per method.
    """
    verdicts = []
    if kind == "flow":
        for design, result in outputs:
            ok = (
                result is not None
                and _assignments_ok(design, result.assignments)
                and _power_ok(
                    {
                        "max_ir_drop_initial": result.metrics_initial.max_ir_drop,
                        "max_ir_drop_final": result.metrics_final.max_ir_drop,
                    }
                )
            )
            verdicts.append(orders_digest(result.assignments) if ok else None)
        return verdicts
    for design, __, assigned, evaluated in outputs:
        ok = assigned is not None and _assignments_ok(design, assigned.assignments)
        digest = orders_digest(assigned.assignments) if ok else None
        verdicts.append(digest)
        for result in evaluated:
            good = result is not None and _power_ok({"max_ir_drop": result.max_ir_drop})
            verdicts.append(digest if good else None)
    return verdicts


def quality(kind: str, outputs: list) -> tuple:
    """(end-to-end quality, exchange-layer quality) of one pass.

    End to end: the mean max density, max IR-drop and wirelength over the
    final assignments (after exchange) or over the evaluations of the
    ``QUALITY_METHODS`` assignments.
    Exchange layer: the mean Eq.-3 total after/before, Table 3's improved
    IR-drop, and the improved bonding wire over stacking (psi > 1) designs.
    """
    if kind == "flow":
        finals = [result.metrics_final for __, result in outputs]
    else:
        finals = [
            r.metrics
            for __, method, __, evaluated in outputs
            if method in QUALITY_METHODS
            for r in evaluated
        ]
    e2e = {
        "max_density": statistics.fmean(m.max_density for m in finals),
        "max_ir_drop": statistics.fmean(m.max_ir_drop for m in finals),
        "wirelength": statistics.fmean(m.wirelength for m in finals),
    }
    exchange = {
        "exchange.eq3_ratio": 0.0,
        "exchange.ir_improvement": 0.0,
        "exchange.bonding_improvement": 0.0,
    }
    if kind == "flow":
        ratios = [
            r.result.exchange.cost_breakdown_after["total"]
            / r.result.exchange.cost_breakdown_before["total"]
            for __, r in outputs
        ]
        stacked = [r.bonding_improvement for d, r in outputs if d.stacking.tier_count > 1]
        exchange["exchange.eq3_ratio"] = statistics.fmean(ratios)
        exchange["exchange.ir_improvement"] = statistics.fmean(
            r.ir_improvement for __, r in outputs
        )
        exchange["exchange.bonding_improvement"] = (
            statistics.fmean(stacked) if stacked else 0.0
        )
    return e2e, exchange


def oracle_check(outputs: list) -> int:
    """Exact Eq.-3 re-derivation of every design's final total; failures."""
    from repro.verify import check_exchange_total

    failed = 0
    for design, result in outputs:
        exchange = result.result.exchange
        report = check_exchange_total(
            design,
            exchange.before,
            exchange.after,
            exchange.cost_breakdown_after["total"],
        )
        if not report.ok:
            print(report, file=sys.stderr)
            failed += 1
    return failed


# -- the measured window -------------------------------------------------------


def setup_sample(workload: str, seed: int) -> float:
    """``setup_s`` of one fresh ``--setup-only`` process of this script."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_window(
    kind: str, designs: list, seed: int, seconds: float, trace: bool, sample_setup=None
) -> dict:
    """Time passes for *seconds*, check every pass, return the raw record.

    Another pass starts only while the time measured so far plus the last
    pass still fits in *seconds*; at least one pass always runs.  With
    *trace*, traced passes get their own *seconds*, interleaved with the
    untraced ones, so the traced/untraced ratio is the tracing overhead.

    *sample_setup*, when given, is called untimed after each untraced pass
    until ``SETUP_SAMPLES - 1`` samples are taken, and after the window for
    any still missing; the record's ``setup_samples`` holds its results.
    """
    import repro.api as api

    from layers import Tracer, layer_metrics, patched

    run_pass = PASSES[kind]
    tracer = Tracer()
    durations = {False: [], True: []}
    spent = {False: 0.0, True: 0.0}
    reference = None
    attempted = failed = 0
    kept = peak_rss_mb = None
    setups = []
    wanted = SETUP_SAMPLES - 1 if sample_setup else 0

    def open_sides():
        return [
            side
            for side in ((False, True) if trace else (False,))
            if not durations[side] or spent[side] + durations[side][-1] <= seconds
        ]

    while open_sides():
        traced = min(open_sides(), key=spent.get)
        # Every pass starts from the same heap: the previous pass's outputs
        # are gone and collected, so collector pauses do not accumulate.
        outputs = None
        gc.collect()
        with patched(tracer) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            outputs = run_pass(api, designs, seed)
            elapsed = time.perf_counter() - start
        durations[traced].append(elapsed)
        spent[traced] += elapsed
        if peak_rss_mb is None:
            # Set-up plus one pass: later passes also hold the kept outputs,
            # so a later reading would depend on how many passes fit.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        verdicts = check_pass(kind, outputs)
        if reference is None:
            reference = verdicts
        attempted += len(verdicts)
        # A call fails when it raised, failed a check, or its orders differ
        # from the first pass's (every pass runs the same inputs).
        failed += sum(
            1 for got, first in zip(verdicts, reference) if got is None or got != first
        )
        if kept is None and all(v is not None for v in verdicts):
            kept = outputs
        if not traced and len(setups) < wanted:
            setups.append(sample_setup())

    outputs = None
    while len(setups) < wanted:
        setups.append(sample_setup())
    record = {
        "attempted": attempted,
        "failed": failed,
        "digest": hashlib.sha256("".join(map(str, reference)).encode()).hexdigest(),
        "samples": {"pass_s": durations[False], "peak_rss_mb": [peak_rss_mb]},
        "setup_samples": setups,
        "traced_passes": len(durations[True]),
        "check_s": 0.0,
    }
    if kept is None:
        record["failed"] = max(failed, 1)
        return record
    # Quality is deterministic at a fixed seed (the digests prove every pass
    # produced the same orders), so it is one sample, not one per pass.
    e2e, exchange = quality(kind, kept)
    record["samples"].update({name: [value] for name, value in e2e.items()})
    if kind == "flow":
        start = time.perf_counter()
        record["failed"] += oracle_check(kept)
        record["check_s"] = time.perf_counter() - start
    if trace:
        per_layer = layer_metrics(tracer, len(durations[True]), sum(durations[True]))
        per_layer.update(exchange)
        per_layer["trace.overhead"] = (
            statistics.median(durations[True]) / statistics.median(durations[False]) - 1
        )
        record["layers"] = per_layer
        record["targets"] = {
            key: [state, tracer.target_calls[key]] for key, state in tracer.status.items()
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro.api  # noqa: F401 - set-up time includes the import

    build_started = time.perf_counter()
    designs = [make_design(entry, args.seed) for entry in WORKLOADS[args.workload][1]]
    build_s = time.perf_counter() - build_started
    warm_up(args.workload, args.seed)
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    kind = WORKLOADS[args.workload][0]
    sampler = None if args.trace else lambda: setup_sample(args.workload, args.seed)
    record = run_window(kind, designs, args.seed, args.seconds, bool(args.trace), sampler)
    record["setup_s"] = [setup_s, *record.pop("setup_samples")]
    if "layers" in record:
        record["layers"]["circuits.build_s"] = build_s
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
