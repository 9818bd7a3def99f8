"""Co-design benchmark: ``api.run`` end to end and layer by layer.

Run one workload::

    python3 benchmarks/codesign/run.py --workload synth_16k --seed 0 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` (median,
IQR and sample count) and ``--trace 1`` every per-layer metric; the last
line of standard output is the JSON result.  The other commands::

    python3 benchmarks/codesign/run.py --list
    python3 benchmarks/codesign/run.py sweep --runs 10 --out pair.json [--trace] [CHECKOUT ...]
    python3 benchmarks/codesign/run.py compare pair.json#a pair.json#b

``sweep`` runs each workload once per seed in each given checkout (this
one by default), each run a fresh ``run.py`` process of that checkout,
alternating which checkout goes first, and stores checkout *i*'s runs as
set *i* of ``abc...``.  ``compare`` applies the ``BENCHMARK.json`` bounds
and the pair-win rule to two sets (``FILE`` alone means ``FILE#a``).
Everything runs from the checkout: the program is imported from its
``src`` directory, and the benchmark exits non-zero without a result when
that directory is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import string
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Every run, set-up samples included, ends inside three minutes.
DEADLINE_S = 170.0

#: End-to-end metrics that are a pure function of the seed.  ``compare``
#: judges them seed by seed at this relative tolerance.  Their bounds in
#: ``BENCHMARK.json`` are as wide as their spread across seeds, which a
#: gate on medians over different seeds has to allow.
EXACT = ("max_density", "max_ir_drop", "wirelength")
EXACT_TOL = 1e-9

#: One thread per numerical library: the benchmark is one generating
#: process and stays within ``nproc`` threads on any host.  A fixed hash
#: seed keeps set iteration, and so every output, identical across runs.
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: per-layer metric -> (end-to-end metric it should move, on which workloads).
LAYER_MAP = {
    "circuits.build_s": ("setup_s", "assign_evaluate, synth_32k"),
    "assign.s": ("pass_s", "assign_evaluate"),
    "assign.calls": ("pass_s", "assign_evaluate"),
    "kernels.build_s": ("pass_s", "synth_32k, synth_16k"),
    "kernels.polish_s": ("pass_s", "synth_32k, synth_16k"),
    "exchange.anneal_s": ("pass_s", "paper_circuits"),
    "exchange.proposed": ("pass_s; exchange.eq3_ratio", "paper_circuits; synth_16k"),
    "exchange.accepted": ("pass_s; exchange.eq3_ratio", "paper_circuits; synth_16k"),
    "exchange.accept_ratio": ("pass_s; exchange.eq3_ratio", "paper_circuits; synth_16k"),
    "exchange.us_per_move": ("pass_s", "paper_circuits"),
    "exchange.improved_frac": ("pass_s; exchange.eq3_ratio", "paper_circuits; synth_16k"),
    "exchange.report_s": ("pass_s", "synth_32k, synth_16k"),
    "exchange.self_s": ("pass_s", "paper_circuits"),
    "exchange.eq3_ratio": ("max_ir_drop, max_density, wirelength", "flow workloads"),
    "exchange.ir_improvement": ("max_ir_drop", "paper_circuits"),
    "exchange.bonding_improvement": ("none (stacking quality)", "paper_circuits"),
    "flow.measure_s": ("pass_s", "synth_16k"),
    "routing.density_s": ("pass_s", "assign_evaluate"),
    "routing.wirelength_s": ("pass_s", "assign_evaluate, synth_32k"),
    "power.ir_s": ("pass_s", "assign_evaluate"),
    "power.ir_calls": ("pass_s", "assign_evaluate"),
    "flow.untracked_s": ("coverage guard", "all"),
    "flow.untracked_frac": ("coverage guard", "all"),
    "trace.pass_s": ("base of every layer share", "all"),
    "trace.overhead": ("traced/untraced pass_s - 1", "all"),
    "trace.absent_targets": ("coverage guard", "all"),
}


class BenchError(Exception):
    """A run that cannot produce a result."""


def load_benchmark() -> dict:
    with open(BENCHMARK) as handle:
        return json.load(handle)


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


# -- one run -----------------------------------------------------------------


def _child(args: list) -> dict:
    """Run ``workloads.py`` in a fresh process; its last stdout line is JSON.

    The child and its set-up samples form their own process group, which
    is killed and waited for if the run overruns ``DEADLINE_S``.
    """
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "workloads.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        start_new_session=True,
    )
    try:
        out, __ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        raise BenchError("run exceeded its deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(bench: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns ``{correct, attempted, failed, metrics}``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    record = _child(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))]
    )

    if trace:
        spec = bench["per_layer"]
        values = record.get("layers", {})
        _print_layers(spec, values, record)
    else:
        spec = bench["end_to_end"]
        samples = {**record["samples"], "setup_s": record["setup_s"]}
        values = {name: statistics.median(v) for name, v in samples.items()}
        _print_end_to_end(spec, samples)
    print(
        f"# {workload} seed={seed} passes={len(record['samples']['pass_s'])} "
        f"traced_passes={record['traced_passes']} "
        f"attempted={record['attempted']} failed={record['failed']} "
        f"check_s={record['check_s']:.3f} orders_sha256={record['digest']}"
    )
    names = [metric["name"] for metric in spec]
    if record["failed"] == 0 and set(values) != set(names):
        raise BenchError(
            f"metrics disagree with {BENCHMARK.name}: "
            f"missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}"
        )
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec
            if m["name"] in values
        },
    }


def _print_end_to_end(spec: list, samples: dict) -> None:
    print(f"{'metric':<14} {'unit':<6} {'median':>14} {'iqr':>12} {'n':>3}")
    for metric in spec:
        values = samples.get(metric["name"], [])
        if values:
            print(
                f"{metric['name']:<14} {metric['unit']:<6} "
                f"{statistics.median(values):>14.6g} {iqr(values):>12.4g} {len(values):>3}"
            )


def _print_layers(spec: list, values: dict, record: dict) -> None:
    pass_s = values.get("trace.pass_s") or 0.0
    print(f"{'layer metric':<30} {'unit':<6} {'value':>14} {'share':>7}")
    for metric in spec:
        name = metric["name"]
        if name not in values:
            continue
        share = (
            f"{values[name] / pass_s:>7.1%}"
            if metric["unit"] == "s" and name not in ("trace.pass_s", "circuits.build_s")
            and pass_s
            else ""
        )
        print(f"{name:<30} {metric['unit']:<6} {values[name]:>14.6g} {share}")
    for key, (state, calls) in sorted(record.get("targets", {}).items()):
        print(f"# patch {key}: {state}, {calls} calls")


# -- --list --------------------------------------------------------------------


def list_metrics(bench: dict) -> str:
    """Every metric of ``BENCHMARK.json`` with its unit, direction and target."""
    layer_names = {metric["name"] for metric in bench["per_layer"]}
    if layer_names != set(LAYER_MAP):
        raise BenchError(
            f"per-layer metrics of {BENCHMARK.name} and LAYER_MAP disagree: "
            f"{sorted(layer_names ^ set(LAYER_MAP))}"
        )
    lines = ["workloads:"]
    lines += [f"  {w['name']:<16} {w['why']}" for w in bench["workloads"]]
    lines.append("end-to-end metrics (every workload, tracing off):")
    lines.append(f"  {'name':<14} {'unit':<6} {'better':<7} bound")
    for m in bench["end_to_end"]:
        exact = f"; compare: seed by seed at {EXACT_TOL:g}" if m["name"] in EXACT else ""
        lines.append(
            f"  {m['name']:<14} {m['unit']:<6} {m['better']:<7} {m['bound']:.0%}{exact}"
        )
    lines.append("per-layer metrics (--trace 1; no bound):")
    lines.append(f"  {'name':<30} {'unit':<6} {'better':<7} {'moves':<38} on workload")
    for m in bench["per_layer"]:
        moves, workloads = LAYER_MAP[m["name"]]
        lines.append(
            f"  {m['name']:<30} {m['unit']:<6} {m['better']:<7} {moves:<38} {workloads}"
        )
    return "\n".join(lines)


# -- compare -------------------------------------------------------------------


def judge(parent: list, change: list, better: str, bound: float) -> str:
    """Verdict for one metric on one workload: parent runs vs change runs.

    ``improved`` needs the change to win at least 9 of 10 pairs (ties win
    for neither) and a median gap larger than the parent's IQR.
    ``regressed`` is a change median worse than the parent's by more than
    *bound* (a share of the parent median).  A parent whose IQR exceeds
    the bound is ``unresolved`` unless every change run beats every
    parent run.
    """
    sign = 1.0 if better == "lower" else -1.0
    parent_median = statistics.median(parent)
    gap = sign * (statistics.median(change) - parent_median)
    scale = abs(parent_median) or 1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if gap < 0 and wins >= 0.9 * len(pairs) and -gap > iqr(parent):
        return "improved"
    if gap / scale > bound:
        return "regressed"
    if iqr(parent) / scale > bound and not all(
        sign * (b - a) < 0 for a in parent for b in change
    ):
        return "unresolved"
    return "unchanged"


def judge_exact(parent: list, change: list, better: str) -> str:
    """Verdict for a metric that is a pure function of the seed.

    Runs are paired by seed, and a pair of identical code reads the same
    to the last digit, so every paired difference beyond ``EXACT_TOL`` is
    the change's doing.  ``regressed`` is any pair worse by more than
    that; ``improved`` is at least 9 of 10 pairs better by more than it.
    """
    sign = 1.0 if better == "lower" else -1.0
    gaps = [sign * (b - a) / (abs(a) or 1.0) for a, b in zip(parent, change)]
    if any(gap > EXACT_TOL for gap in gaps):
        return "regressed"
    if sum(1 for gap in gaps if gap < -EXACT_TOL) >= 0.9 * len(gaps):
        return "improved"
    return "unchanged"


def load_set(argument: str) -> dict:
    """``{workload: [run]}`` of set ``SET`` of ``FILE#SET`` (``a`` if omitted)."""
    path, __, name = argument.partition("#")
    with open(path) as handle:
        doc = json.load(handle)
    return doc[name or "a"]["runs"]


def _paired(runs_a: list, runs_b: list, metric: str) -> tuple:
    """Values of *metric* paired by seed; both sides must hold the same seeds."""
    seeds = [run["seed"] for run in runs_a]
    by_seed = {run["seed"]: run for run in runs_b}
    if sorted(seeds) != sorted(by_seed):
        raise BenchError(f"seeds differ: {sorted(seeds)} against {sorted(by_seed)}")
    return (
        [run["metrics"][metric] for run in runs_a],
        [by_seed[seed]["metrics"][metric] for seed in seeds],
    )


def compare(bench: dict, parent_arg: str, change_arg: str) -> int:
    parent, change = load_set(parent_arg), load_set(change_arg)
    regressed = False
    for workload in (w["name"] for w in bench["workloads"]):
        if workload not in parent or workload not in change:
            print(f"{workload:<16} missing from one side")
            continue
        cells = []
        for m in bench["end_to_end"]:
            a, b = _paired(parent[workload], change[workload], m["name"])
            if m["name"] in EXACT:
                verdict = judge_exact(a, b, m["better"])
            else:
                verdict = judge(a, b, m["better"], m["bound"])
            regressed |= verdict == "regressed"
            delta = statistics.median(b) / statistics.median(a) - 1
            cells.append(f"{m['name']}={verdict}({delta:+.2%})")
        failed = sum(r["failed"] for r in change[workload])
        print(f"{workload:<16} failed={failed} " + " ".join(cells))
    return 1 if regressed else 0


# -- sweep ---------------------------------------------------------------------


def sweep(bench: dict, args) -> int:
    """Run every workload once per seed in each checkout and record the runs.

    For seed *s* the checkouts take turns starting with checkout
    ``s mod k``, so drift of the host's speed lands on every set alike.
    """
    roots = [Path(root).resolve() for root in args.checkouts] or [ROOT]
    if len(roots) > len(string.ascii_lowercase):
        raise BenchError(f"at most {len(string.ascii_lowercase)} checkouts")
    scripts = [root / BENCH_DIR.relative_to(ROOT) / "run.py" for root in roots]
    for script in scripts:
        if not script.is_file():
            raise BenchError(f"no benchmark at {script}")
    seconds = bench["run_seconds"]
    runs = [{} for __ in scripts]
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in range(args.runs):
            for turn in range(len(scripts)):
                side = (seed + turn) % len(scripts)
                started = time.monotonic()
                proc = subprocess.run(
                    [
                        sys.executable, str(scripts[side]),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(int(args.trace)),
                    ],
                    stdout=subprocess.PIPE,
                    text=True,
                    cwd=roots[side],
                    timeout=DEADLINE_S + 10,
                )
                label = string.ascii_lowercase[side]
                if proc.returncode != 0:
                    raise BenchError(f"{workload} seed {seed} set {label}: exit {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                runs[side].setdefault(workload, []).append(
                    {
                        "seed": seed,
                        "correct": result["correct"],
                        "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    }
                )
                print(
                    f"{workload} seed {seed} set {label}: "
                    f"{time.monotonic() - started:.1f} s wall, correct={result['correct']}",
                    file=sys.stderr,
                )
    host = {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    doc = {
        label: {"seconds": seconds, "trace": bool(args.trace), "host": host, "runs": side_runs}
        for label, side_runs in zip(string.ascii_lowercase, runs)
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        bench = load_benchmark()
        if argv[:1] == ["compare"]:
            parser = argparse.ArgumentParser(prog="run.py compare")
            parser.add_argument("parent")
            parser.add_argument("change")
            args = parser.parse_args(argv[1:])
            return compare(bench, args.parent, args.change)
        if argv[:1] == ["sweep"]:
            parser = argparse.ArgumentParser(prog="run.py sweep")
            parser.add_argument("--runs", type=int, default=10)
            parser.add_argument("--trace", action="store_true")
            parser.add_argument("--out", required=True)
            parser.add_argument("checkouts", nargs="*", help="default: this checkout")
            return sweep(bench, parser.parse_args(argv[1:]))

        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--list", action="store_true")
        parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        if args.list:
            print(list_metrics(bench))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"codesign benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
