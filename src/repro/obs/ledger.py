"""The append-only perf-regression ledger: ``repro bench run`` / ``compare``.

:mod:`repro.obs.bench` gave each benchmark a one-off ``BENCH_*.json``
snapshot; this module strings them into a *trajectory* and gates on it:

- **Registration.**  A benchmark module under ``benchmarks/`` opts in by
  exposing ``ledger_metrics() -> Dict[str, float]`` (a quick, deterministic
  measurement pass), optionally ``LEDGER_GATED: Dict[str, str]`` mapping
  metric names to ``"lower"``/``"higher"`` (which direction is *better*;
  ungated metrics are recorded but never fail a compare) and
  ``LEDGER_SEED``.
- **History.**  ``run_ledger`` executes every registered module and
  appends one schema-versioned record per bench — git revision, seed,
  host fingerprint, metrics — to ``results/BENCH_history.jsonl``.
- **Gating.**  ``compare_ledger`` diffs the latest record per bench
  against a committed baseline (``results/BENCH_baseline.json``) or an
  earlier history revision (``--against <rev>``) and reports regressions
  beyond the gate percentage; the CLI exits non-zero on any.

Baseline metric specs (``results/BENCH_baseline.json``)::

    {"schema": 1, "benches": {"obs": {"metrics": {
        "overhead": {"max": 0.05},                       # absolute bound
        "us_per_move": {"value": 2.1, "direction": "lower", "gate": 50}
    }}}}

Absolute ``max``/``min`` bounds suit machine-independent ratios and
counts; relative ``value``+``direction`` specs suit raw timings, with an
optional per-metric ``gate`` override of the CLI-wide percentage.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .bench import make_bench_record

#: Default history location, relative to the repo root.
DEFAULT_HISTORY = Path("results") / "BENCH_history.jsonl"

#: Default committed baseline location.
DEFAULT_BASELINE = Path("results") / "BENCH_baseline.json"

_SPARK = "▁▂▃▄▅▆▇█"


def host_fingerprint() -> dict:
    """Where a record was measured — regressions are only comparable
    within one machine class, so every record carries its host."""
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


# -- discovery -------------------------------------------------------------


def discover_benches(bench_dir) -> List[Tuple[str, Path]]:
    """``(name, path)`` of every ``bench_*.py`` under *bench_dir*."""
    root = Path(bench_dir)
    out = []
    for path in sorted(root.glob("bench_*.py")):
        out.append((path.stem[len("bench_"):], path))
    return out


def load_bench_module(name: str, path: Path):
    """Import one benchmark file as a throwaway module."""
    spec = importlib.util.spec_from_file_location(f"repro_ledger.{name}", path)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise ImportError(f"cannot load bench module {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def registered_benches(bench_dir) -> List[Tuple[str, object]]:
    """Every bench module exposing a callable ``ledger_metrics``."""
    out = []
    for name, path in discover_benches(bench_dir):
        try:
            module = load_bench_module(name, path)
        except Exception as exc:  # noqa: BLE001 - skip, don't abort the run
            print(f"ledger: skipping {path.name}: {type(exc).__name__}: {exc}")
            continue
        if callable(getattr(module, "ledger_metrics", None)):
            out.append((name, module))
    return out


# -- history ---------------------------------------------------------------


def append_history(path, record: dict) -> None:
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_history(path) -> List[dict]:
    """Every parseable record of a history file, oldest first."""
    records = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and isinstance(
                    record.get("metrics"), dict
                ):
                    records.append(record)
    except FileNotFoundError:
        pass
    return records


def latest_by_name(records: Sequence[dict]) -> Dict[str, dict]:
    """The newest record per bench name (file order == time order)."""
    latest: Dict[str, dict] = {}
    for record in records:
        name = record.get("name")
        if isinstance(name, str):
            latest[name] = record
    return latest


def run_ledger(
    bench_dir,
    history_path=None,
    only: Optional[Sequence[str]] = None,
) -> List[dict]:
    """Execute every registered bench and append records to the history."""
    history_path = history_path or DEFAULT_HISTORY
    wanted = set(only) if only else None
    written = []
    for name, module in registered_benches(bench_dir):
        if wanted is not None and name not in wanted:
            continue
        print(f"ledger: running bench_{name} ...", flush=True)
        metrics = module.ledger_metrics()
        record = make_bench_record(
            name,
            metrics,
            seed=getattr(module, "LEDGER_SEED", None),
            context={
                "host": host_fingerprint(),
                "gated": dict(getattr(module, "LEDGER_GATED", {})),
            },
        )
        append_history(history_path, record)
        written.append(record)
        print(f"ledger: bench_{name}: {len(metrics)} metrics recorded")
    return written


# -- comparison / gating ---------------------------------------------------


def load_baseline(path) -> Dict[str, dict]:
    """``bench name -> {metric -> spec}`` from a committed baseline."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    benches = doc.get("benches") if isinstance(doc, dict) else None
    if not isinstance(benches, dict):
        raise ValueError(f"{path}: not a ledger baseline (missing 'benches')")
    return {
        name: entry.get("metrics", {})
        for name, entry in benches.items()
        if isinstance(entry, dict)
    }


def _check_spec(metric: str, value: float, spec: dict,
                gate_pct: float) -> Tuple[str, Optional[str]]:
    """``(description, failure-or-None)`` for one metric vs its spec."""
    if "max" in spec:
        bound = float(spec["max"])
        status = None if value <= bound else (
            f"{metric}: {value:.6g} exceeds absolute max {bound:.6g}"
        )
        return f"{metric}: {value:.6g} (max {bound:.6g})", status
    if "min" in spec:
        bound = float(spec["min"])
        status = None if value >= bound else (
            f"{metric}: {value:.6g} below absolute min {bound:.6g}"
        )
        return f"{metric}: {value:.6g} (min {bound:.6g})", status
    base = float(spec.get("value", 0.0))
    direction = spec.get("direction", "lower")
    pct = float(spec.get("gate", gate_pct))
    if base == 0.0:
        return f"{metric}: {value:.6g} (no baseline value)", None
    change = (value - base) / abs(base) * 100.0
    regressed = change > pct if direction == "lower" else change < -pct
    text = (
        f"{metric}: {base:.6g} -> {value:.6g} ({change:+.1f}%, "
        f"{direction} is better, gate {pct:g}%)"
    )
    failure = (
        f"{metric}: regression {change:+.1f}% beyond gate {pct:g}% "
        f"({base:.6g} -> {value:.6g}, {direction} is better)"
        if regressed
        else None
    )
    return text, failure


def _specs_from_record(record: dict, gate_pct: float) -> Dict[str, dict]:
    """Turn an old history record into relative specs for its gated
    metrics (``--against <rev>`` mode)."""
    gated = record.get("context", {}).get("gated", {})
    metrics = record.get("metrics", {})
    specs = {}
    for metric, direction in gated.items():
        value = metrics.get(metric)
        if isinstance(value, (int, float)):
            specs[metric] = {
                "value": value,
                "direction": direction,
                "gate": gate_pct,
            }
    return specs


def compare_ledger(
    history_path=None,
    baseline_path=None,
    against: Optional[str] = None,
    gate_pct: float = 20.0,
) -> dict:
    """Gate the latest history records; returns ``{"rows", "failures"}``.

    ``against`` selects an earlier history revision (prefix-matched git
    rev) as the baseline; otherwise the committed baseline file is used.
    """
    history_path = history_path or DEFAULT_HISTORY
    records = load_history(history_path)
    if not records:
        return {
            "rows": [],
            "failures": [f"no ledger history at {history_path}; "
                         f"run `repro bench run` first"],
        }
    latest = latest_by_name(records)
    if against:
        baseline_specs = {
            name: _specs_from_record(record, gate_pct)
            for name, record in latest_by_name(
                [
                    r for r in records
                    if isinstance(r.get("git_rev"), str)
                    and r["git_rev"].startswith(against)
                ]
            ).items()
        }
        if not baseline_specs:
            return {
                "rows": [],
                "failures": [f"no history records for rev {against!r}"],
            }
    else:
        baseline_path = baseline_path or DEFAULT_BASELINE
        try:
            baseline_specs = load_baseline(baseline_path)
        except FileNotFoundError:
            return {
                "rows": [],
                "failures": [f"no baseline at {baseline_path}"],
            }
    rows: List[str] = []
    failures: List[str] = []
    for name in sorted(baseline_specs):
        specs = baseline_specs[name]
        record = latest.get(name)
        if record is None:
            rows.append(f"{name}: no history record (baseline only)")
            continue
        rev = (record.get("git_rev") or "unknown")[:12]
        rows.append(f"{name} @ {rev}:")
        metrics = record.get("metrics", {})
        for metric in sorted(specs):
            value = metrics.get(metric)
            if not isinstance(value, (int, float)):
                failures.append(f"{name}.{metric}: missing from latest record")
                rows.append(f"  {metric}: MISSING")
                continue
            text, failure = _check_spec(
                metric, float(value), specs[metric], gate_pct
            )
            rows.append("  " + text + ("  REGRESSION" if failure else ""))
            if failure:
                failures.append(f"{name}.{failure}")
    return {"rows": rows, "failures": failures}


# -- trajectory rendering (repro stats --compare history.jsonl) ------------


def sparkline(values: Sequence[float]) -> str:
    """A unicode sparkline of a numeric series (empty-safe)."""
    finite = [v for v in values if isinstance(v, (int, float))]
    if not finite:
        return ""
    lo, hi = min(finite), max(finite)
    span = hi - lo
    chars = []
    for v in values:
        if not isinstance(v, (int, float)):
            chars.append(" ")
        elif span == 0:
            chars.append(_SPARK[0])
        else:
            index = int((v - lo) / span * (len(_SPARK) - 1))
            chars.append(_SPARK[index])
    return "".join(chars)


def history_table(records: Sequence[dict], width: int = 24) -> str:
    """Per-metric trajectory table over a whole history, newest last.

    One block per bench name; each metric row shows first/last values,
    the overall relative change, and a sparkline of the trajectory
    (rightmost = newest, capped to the last *width* records).
    """
    by_name: Dict[str, List[dict]] = {}
    for record in records:
        name = record.get("name")
        if isinstance(name, str):
            by_name.setdefault(name, []).append(record)
    blocks = []
    for name in sorted(by_name):
        runs = by_name[name][-width:]
        revs = [(r.get("git_rev") or "?")[:7] for r in runs]
        blocks.append(
            f"bench {name}: {len(by_name[name])} runs "
            f"({revs[0]} .. {revs[-1]})"
        )
        metric_names = sorted(
            {m for r in runs for m in r.get("metrics", {})}
        )
        label_width = max((len(m) for m in metric_names), default=6)
        for metric in metric_names:
            series = [r.get("metrics", {}).get(metric) for r in runs]
            numeric = [v for v in series if isinstance(v, (int, float))]
            if not numeric:
                continue
            first, last = numeric[0], numeric[-1]
            change = (
                f"{(last - first) / abs(first):+.1%}" if first else "    -"
            )
            blocks.append(
                f"  {metric:<{label_width}}  {first:>12.6g} -> "
                f"{last:>12.6g}  {change:>8}  {sparkline(series)}"
            )
    return "\n".join(blocks) if blocks else "no ledger records"
