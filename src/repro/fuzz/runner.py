"""The fuzz campaign loop: generate, check, shrink, record, replay.

:func:`run_fuzz` drives a seeded :class:`~.gen.CaseGenerator` through the
oracle suite under a case-count and/or wall-clock budget.  Every failure
is minimized by :mod:`~.shrink` and written to the JSON corpus, and the
whole campaign is observable: a ``fuzz`` span wraps the run, ``fuzz.*``
events land in the trace (schema-registered in ``obs.schema``), and the
``fuzz.cases`` / ``fuzz.failures`` / ``fuzz.skipped`` counters plus the
final cases/s figure ride the standard metrics channel.

:func:`replay_corpus` re-runs every stored minimized case against its
recorded oracle — the "stays green forever" half of the workflow, wired
into tier-1 via ``tests/test_fuzz.py``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .gen import CASE_FORMAT, CaseGenerator, FuzzCase
from .oracles import ORACLE_STRIDES, ORACLES, SkippedCase
from .shrink import failure_predicate, shrink_case

#: Default on-disk corpus location (repo-relative), shared with the CLI.
DEFAULT_CORPUS = "tests/data/fuzz_corpus"


@dataclass
class FuzzFailure:
    """One divergence: the oracle, the problems, and the minimized case."""

    oracle: str
    case: FuzzCase
    problems: List[str]
    shrunk: Optional[FuzzCase] = None
    shrink_evals: int = 0
    corpus_path: Optional[str] = None

    def minimized(self) -> FuzzCase:
        return self.shrunk if self.shrunk is not None else self.case


@dataclass
class FuzzReport:
    """Campaign summary returned by :func:`run_fuzz` / :func:`replay_corpus`."""

    cases: int = 0
    checks: int = 0
    skipped: int = 0
    seconds: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)
    per_oracle: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        rate = self.cases / self.seconds if self.seconds > 0 else 0.0
        lines = [
            f"fuzz: {self.cases} case(s), {self.checks} oracle check(s), "
            f"{self.skipped} skipped, {len(self.failures)} failure(s) "
            f"in {self.seconds:.1f}s ({rate:.1f} cases/s)"
        ]
        for name in sorted(self.per_oracle):
            lines.append(f"  {name}: {self.per_oracle[name]} check(s)")
        for failure in self.failures:
            case = failure.minimized()
            lines.append(f"FAIL [{failure.oracle}] {case.label()}")
            lines.extend(f"  - {problem}" for problem in failure.problems[:5])
            if failure.corpus_path:
                lines.append(f"  minimized repro: {failure.corpus_path}")
        return "\n".join(lines)


def _select_oracles(names: Optional[Sequence[str]]) -> Dict[str, object]:
    if not names:
        return dict(ORACLES)
    unknown = sorted(set(names) - set(ORACLES))
    if unknown:
        raise KeyError(
            f"unknown oracle(s) {unknown}; available: {sorted(ORACLES)}"
        )
    return {name: ORACLES[name] for name in ORACLES if name in set(names)}


def _check_case(oracle_name, oracle, case, report, telemetry, metrics):
    """Run one oracle on one case, booking the outcome; returns problems."""
    report.per_oracle[oracle_name] = report.per_oracle.get(oracle_name, 0) + 1
    report.checks += 1
    try:
        problems = oracle(case)
    except SkippedCase:
        report.skipped += 1
        metrics.counter("fuzz.skipped").inc()
        return []
    if problems:
        telemetry.emit(
            "fuzz.failure",
            oracle=oracle_name,
            case=case.label(),
            problems=list(problems[:8]),
        )
        metrics.counter("fuzz.failures").inc()
    return problems


def _finish(report, started: float, telemetry):
    """Stamp the campaign's wall time and emit its ``fuzz.end`` event."""
    report.seconds = time.perf_counter() - started
    telemetry.emit(
        "fuzz.end",
        cases=report.cases,
        failures=len(report.failures),
        skipped=report.skipped,
        seconds=round(report.seconds, 6),
        cases_per_s=round(report.cases / report.seconds, 3)
        if report.seconds > 0
        else 0.0,
    )
    return report


def run_fuzz(
    cases: int = 100,
    seed: int = 0,
    oracles: Optional[Sequence[str]] = None,
    minutes: Optional[float] = None,
    corpus_dir: Optional[str] = None,
    telemetry=None,
    shrink: bool = True,
) -> FuzzReport:
    """Fuzz until *cases* cases ran or the *minutes* budget is spent.

    Failures are minimized (unless ``shrink=False``) and written to
    *corpus_dir* when one is given.
    """
    from ..obs.spans import span
    from ..runtime.telemetry import get_telemetry

    telemetry = telemetry if telemetry is not None else get_telemetry()
    metrics = telemetry.metrics
    selected = _select_oracles(oracles)
    generator = CaseGenerator(seed)
    deadline = time.monotonic() + minutes * 60.0 if minutes else None
    report = FuzzReport()
    started = time.perf_counter()
    telemetry.emit(
        "fuzz.begin", cases=cases, oracles=sorted(selected), seed=seed
    )
    with span("fuzz", telemetry, seed=seed):
        for index in range(cases):
            if deadline is not None and time.monotonic() >= deadline:
                break
            case = generator.case()
            report.cases += 1
            metrics.counter("fuzz.cases").inc()
            for name, oracle in selected.items():
                if index % ORACLE_STRIDES.get(name, 1):
                    continue
                problems = _check_case(
                    name, oracle, case, report, telemetry, metrics
                )
                if not problems:
                    continue
                failure = FuzzFailure(oracle=name, case=case, problems=problems)
                if shrink:
                    with span("fuzz.shrink", telemetry, oracle=name):
                        failure.shrunk, failure.shrink_evals = shrink_case(
                            case, failure_predicate(oracle)
                        )
                    telemetry.emit(
                        "fuzz.shrink",
                        oracle=name,
                        case=failure.shrunk.label(),
                        evals=failure.shrink_evals,
                    )
                if corpus_dir:
                    failure.corpus_path = str(
                        save_corpus_entry(corpus_dir, failure)
                    )
                report.failures.append(failure)
    return _finish(report, started, telemetry)


# -- corpus ----------------------------------------------------------------


def save_corpus_entry(corpus_dir, failure: FuzzFailure) -> Path:
    """Write one minimized failure as ``<oracle>-<digest12>.json``."""
    case = failure.minimized()
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{failure.oracle}-{case.digest()[:12]}.json"
    payload = {
        "format": CASE_FORMAT,
        "oracle": failure.oracle,
        "problems": list(failure.problems[:8]),
        "case": case.to_json(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(corpus_dir) -> List[dict]:
    """Every corpus entry as its parsed JSON payload, sorted by filename."""
    directory = Path(corpus_dir)
    if not directory.is_dir():
        return []
    entries = []
    for path in sorted(directory.glob("*.json")):
        payload = json.loads(path.read_text())
        if payload.get("format") != CASE_FORMAT:
            raise ValueError(
                f"{path}: unsupported corpus format {payload.get('format')!r}"
            )
        payload["path"] = str(path)
        entries.append(payload)
    return entries


def replay_corpus(
    corpus_dir,
    telemetry=None,
) -> FuzzReport:
    """Re-run every stored minimized case against its recorded oracle."""
    from ..obs.spans import span
    from ..runtime.telemetry import get_telemetry

    telemetry = telemetry if telemetry is not None else get_telemetry()
    metrics = telemetry.metrics
    report = FuzzReport()
    started = time.perf_counter()
    entries = load_corpus(corpus_dir)
    telemetry.emit(
        "fuzz.begin",
        cases=len(entries),
        oracles=sorted({entry["oracle"] for entry in entries}),
        seed=0,
    )
    with span("fuzz", telemetry, mode="replay"):
        for entry in entries:
            oracle_name = entry["oracle"]
            oracle = ORACLES.get(oracle_name)
            case = FuzzCase.from_json(entry["case"])
            report.cases += 1
            metrics.counter("fuzz.cases").inc()
            if oracle is None:
                report.failures.append(
                    FuzzFailure(
                        oracle=oracle_name,
                        case=case,
                        problems=[f"unknown oracle {oracle_name!r} in corpus"],
                    )
                )
                continue
            problems = _check_case(
                oracle_name, oracle, case, report, telemetry, metrics
            )
            if problems:
                failure = FuzzFailure(
                    oracle=oracle_name, case=case, problems=problems
                )
                failure.corpus_path = entry.get("path")
                report.failures.append(failure)
    return _finish(report, started, telemetry)
