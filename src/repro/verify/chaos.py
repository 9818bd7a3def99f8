"""Deterministic fault injection: prove failures surface, never wrong numbers.

Driven by a single seed, the harness injects one representative of every
fault class the runtime can meet in production — a malformed circuit, a
NaN IR demand, a corrupted cache entry, a dying worker process, a hung
job — and runs them through the real :class:`~repro.runtime.JobEngine`.
The contract under test: every fault either surfaces as a typed
:class:`~repro.errors.ReproError` (classified by the taxonomy) or degrades
gracefully to a verified value — silence and wrong numbers are both bugs.

Everything is reproducible: the fault plan, the cache-corruption mode and
the injected payloads are all pure functions of the seed.

The chaos job types are registered on import; the job-type registry
(:func:`repro.runtime.spec.resolve_job_type`) imports this module on demand
for any ``chaos_*`` kind, so the faults also resolve inside pool workers.
"""

from __future__ import annotations

from ..assign import assign_design
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import NonFiniteCostError, PackageModelError
from ..runtime.cache import ResultCache
from ..runtime.engine import JobEngine, JobOutcome
from ..runtime.spec import JobSpec, register_job_type

#: The injectable fault classes, in plan order.
FAULTS = (
    "malformed_circuit",
    "nan_cost",
    "corrupt_cache",
    "worker_crash",
    "timeout",
    "torn_journal",
    "corrupt_checkpoint",
    "journal_worker_crash",
)

#: Cache-corruption modes :func:`corrupt_cache_entry` can apply.
CACHE_CORRUPTIONS = ("truncate", "garble", "digest", "schema", "nan_value")


# -- chaos job types -------------------------------------------------------


@register_job_type("chaos_malformed")
def _chaos_malformed(params: dict, seed: Optional[int]):
    """Build a deterministically malformed circuit; always raises typed."""
    from ..package import quadrant_from_rows

    variant = params.get("variant", "duplicate-ball")
    if variant == "duplicate-ball":
        # net 3 owns two bump balls
        quadrant_from_rows([[1, 2, 3], [3, 4]])
    elif variant == "empty-row":
        quadrant_from_rows([[1, 2], []])
    elif variant == "tier-range":
        from ..circuits import build_design, table1_circuit
        from ..package import PackageDesign, StackingConfig

        design = build_design(table1_circuit(1, tier_count=4), seed=0)
        # rebuild with a 1-tier stack while nets still sit on tiers 2..4
        PackageDesign(
            design.quadrants, design.technology, StackingConfig(tier_count=1)
        )
    raise PackageModelError(f"malformed variant {variant!r} unexpectedly built")


@register_job_type("chaos_nan_cost")
def _chaos_nan_cost(params: dict, seed: Optional[int]):
    """Run a tiny exchange whose IR demand turns NaN after a few reads."""
    from ..assign import DFAAssigner
    from ..circuits import build_design, table1_circuit
    from ..exchange import FingerPadExchanger, SAParams

    poison_after = int(params.get("poison_after", 3))
    calls = {"n": 0}

    def poisoned_demand(fraction):
        calls["n"] += 1
        if calls["n"] > poison_after:
            return float("nan")
        return 1.0

    design = build_design(table1_circuit(1), seed=0)
    exchanger = FingerPadExchanger(
        design,
        params=SAParams(initial_temp=0.03, final_temp=0.01, cooling=0.5,
                        moves_per_temp=10),
        demand=poisoned_demand,
        polish_passes=0,
    )
    result = exchanger.run(assign_design(DFAAssigner(), design, seed=seed), seed=seed)
    # Unreachable when the guard works: the poisoned demand must trip
    # NonFiniteCostError when the kernel builds its weight table.
    return {"best_cost": result.stats.best_cost}


@register_job_type("chaos_crash")
def _chaos_crash(params: dict, seed: Optional[int]):
    """Kill the pool worker outright; survive (and answer) when serial."""
    if os.getpid() != int(params["parent_pid"]):
        os._exit(17)
    return {"survived": True, "fault": "worker_crash"}


@register_job_type("chaos_hang")
def _chaos_hang(params: dict, seed: Optional[int]):
    """Sleep far past the engine's per-job timeout."""
    time.sleep(float(params.get("sleep", 30.0)))
    return {"overslept": True}


@register_job_type("chaos_bad_value")
def _chaos_bad_value(params: dict, seed: Optional[int]):
    """Return a NaN-poisoned result until a marker says enough attempts.

    With ``fail_times=0`` the first value is already poisoned-free; with
    ``fail_times=1`` the first execution returns NaN and a re-run (the
    ``repair`` policy) returns the honest number — modelling a transient
    worker that corrupted one result.
    """
    marker = params.get("marker")
    attempts = 1
    if marker:
        with open(marker, "a") as handle:
            handle.write("x")
        attempts = os.path.getsize(marker)
    if attempts <= int(params.get("fail_times", 0)):
        return {"max_density": float("nan"), "attempt": attempts}
    return {"max_density": 7, "attempt": attempts}


# -- cache corruption ------------------------------------------------------


def corrupt_cache_entry(
    cache: ResultCache,
    spec: JobSpec,
    seed: int = 0,
    mode: Optional[str] = None,
) -> str:
    """Deterministically damage the cache entry of *spec*; returns the mode.

    The entry must exist.  ``mode`` (or a seed-chosen one) is applied:

    - ``truncate``: cut the JSON file mid-payload (killed writer);
    - ``garble``: overwrite a byte span with noise (disk corruption);
    - ``digest``: keep valid JSON but break the payload digest (entry
      swapped/moved between specs);
    - ``schema``: rewrite the schema version (stale library format);
    - ``nan_value``: replace a numeric leaf with NaN (poisoned producer —
      only the engine's verify policy can catch this one).
    """
    rng = random.Random(seed)
    mode = mode if mode is not None else rng.choice(CACHE_CORRUPTIONS)
    if mode not in CACHE_CORRUPTIONS:
        raise ValueError(f"unknown corruption mode {mode!r}")
    path = cache.path_for(spec)
    text = path.read_text(encoding="utf-8")
    if mode == "truncate":
        path.write_text(text[: max(1, len(text) // 2)], encoding="utf-8")
    elif mode == "garble":
        start = rng.randrange(0, max(1, len(text) - 8))
        noise = "".join(rng.choice("!@#$%^&*") for __ in range(8))
        path.write_text(text[:start] + noise + text[start + 8:], encoding="utf-8")
    elif mode == "digest":
        payload = json.loads(text)
        payload["digest"] = "0" * 64
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    elif mode == "schema":
        payload = json.loads(text)
        payload["schema"] = -1
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    elif mode == "nan_value":
        payload = json.loads(text)
        payload["value"] = {"max_density": float("nan")}
        # json.dumps writes NaN as the (non-standard but parseable) token NaN
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return mode


# -- the harness -----------------------------------------------------------


@dataclass(frozen=True)
class FaultReport:
    """What one injected fault did to the engine."""

    fault: str
    ok: bool
    error: Optional[str]
    error_class: Optional[str]
    degraded: bool
    value: object = None

    @property
    def contained(self) -> bool:
        """The contract: a typed failure, or a graceful (valid) result."""
        if self.ok:
            return True
        return self.error_class not in (None, "unknown")


class ChaosHarness:
    """Seed-driven fault injection against a real :class:`JobEngine`.

    Parameters
    ----------
    seed:
        Drives every random choice (corruption mode, spec seeds); two
        harnesses with the same seed and workdir inject byte-identical
        faults.
    workdir:
        Scratch directory for the cache under attack and marker files.
    """

    def __init__(self, seed: int, workdir, jobs: int = 2, telemetry=None) -> None:
        self.seed = int(seed)
        self.workdir = os.fspath(workdir)
        self.jobs = jobs
        self.telemetry = telemetry

    def plan(self) -> List[str]:
        """The fault classes this harness will inject, in order."""
        return list(FAULTS)

    def _engine(self, **overrides) -> JobEngine:
        options = dict(
            jobs=self.jobs,
            retries=0,
            backoff=0.001,
            verify="strict",
            telemetry=self.telemetry,
        )
        options.update(overrides)
        return JobEngine(**options)

    def _report(self, fault: str, outcome: JobOutcome, degraded: bool) -> FaultReport:
        return FaultReport(
            fault=fault,
            ok=outcome.ok,
            error=outcome.error,
            error_class=outcome.error_class,
            degraded=degraded,
            value=outcome.value,
        )

    def inject(self, fault: str) -> FaultReport:
        """Inject one fault class and report how the engine contained it."""
        rng = random.Random((self.seed, fault).__repr__())
        if fault == "malformed_circuit":
            variant = rng.choice(("duplicate-ball", "empty-row", "tier-range"))
            spec = JobSpec("chaos_malformed", {"variant": variant}, seed=self.seed)
            outcome = self._engine(jobs=1).run_one(spec)
            return self._report(fault, outcome, degraded=False)

        if fault == "nan_cost":
            spec = JobSpec(
                "chaos_nan_cost",
                {"poison_after": 2 + rng.randrange(4)},
                seed=self.seed,
            )
            outcome = self._engine(jobs=1).run_one(spec)
            return self._report(fault, outcome, degraded=False)

        if fault == "corrupt_cache":
            cache = ResultCache(os.path.join(self.workdir, "chaos-cache"))
            spec = JobSpec("chaos_bad_value", {"fail_times": 0}, seed=self.seed)
            engine = self._engine(jobs=1, cache=cache)
            first = engine.run_one(spec)
            mode = corrupt_cache_entry(cache, spec, seed=self.seed)
            again = self._engine(jobs=1, cache=cache).run_one(spec)
            degraded = not again.cached  # the poisoned entry was not served
            report = self._report(fault, again, degraded=degraded)
            if report.ok and again.value != first.value:
                # A corrupt entry must never change the answer.
                return FaultReport(
                    fault=fault, ok=False,
                    error=f"corrupted entry ({mode}) altered the value",
                    error_class="cache", degraded=degraded, value=again.value,
                )
            return report

        if fault == "worker_crash":
            spec = JobSpec(
                "chaos_crash", {"parent_pid": os.getpid()}, seed=self.seed
            )
            outcome = self._engine(jobs=max(2, self.jobs)).run([spec, spec])[0]
            return self._report(fault, outcome, degraded=True)

        if fault == "timeout":
            spec = JobSpec("chaos_hang", {"sleep": 20.0}, seed=self.seed)
            outcome = self._engine(
                jobs=max(2, self.jobs), timeout=0.3
            ).run([spec, spec])[0]
            return self._report(fault, outcome, degraded=False)

        if fault == "torn_journal":
            return self._inject_torn_journal()

        if fault == "corrupt_checkpoint":
            return self._inject_corrupt_checkpoint(rng)

        if fault == "journal_worker_crash":
            return self._inject_journal_worker_crash()

        raise ValueError(f"unknown fault {fault!r}; known: {FAULTS}")

    def _inject_torn_journal(self) -> FaultReport:
        """A kill -9 mid-append leaves a torn final journal line; replay
        must drop it, keep every settled record, and still raise typed on
        *interior* garbage (which is damage, not a crash signature)."""
        from ..errors import JournalCorruptionError
        from ..runtime.journal import JobJournal

        fault = "torn_journal"
        path = os.path.join(self.workdir, "chaos-journal.wal")
        spec = JobSpec("chaos_bad_value", {"fail_times": 0}, seed=self.seed)
        with JobJournal(path) as journal:
            first = self._engine(jobs=1, journal=journal).run_one(spec)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"rec": "sett')  # the torn tail of a dying append
        with JobJournal(path) as reopened:
            torn = reopened.diagnostics["torn_tail"]
            record = reopened.settled_record(spec.digest())
        if torn != 1 or record is None or record.get("value") != first.value:
            return FaultReport(
                fault=fault, ok=False,
                error="torn journal tail lost or altered the settled record",
                error_class="journal", degraded=True,
            )
        # Interior garbage: not the final line, so not a torn tail.
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines.insert(0, "NOT A JOURNAL RECORD\n")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        try:
            JobJournal(path)
        except JournalCorruptionError as exc:
            return FaultReport(
                fault=fault, ok=True, error=str(exc), error_class="journal",
                degraded=True, value={"torn_tail": torn},
            )
        return FaultReport(
            fault=fault, ok=False,
            error="interior journal corruption went undetected",
            error_class=None, degraded=False,
        )

    def _inject_corrupt_checkpoint(self, rng: random.Random) -> FaultReport:
        """A damaged SA checkpoint must read as absent (renamed aside,
        run restarts from scratch) — or raise typed under ``strict``."""
        from ..errors import CheckpointIntegrityError
        from ..exchange import SACheckpointer

        fault = "corrupt_checkpoint"
        path = os.path.join(self.workdir, "chaos-checkpoint.json")

        def write_and_garble() -> None:
            checkpointer = SACheckpointer(path, interval=5)
            checkpointer.save({"proposed": 5, "marker": "chaos"})
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            start = rng.randrange(0, max(1, len(text) - 8))
            noise = "".join(rng.choice("!@#$%^&*") for __ in range(8))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text[:start] + noise + text[start + 8:])

        write_and_garble()
        resumed = SACheckpointer(path, interval=5).load()
        quarantined = os.path.exists(path + ".corrupt")
        write_and_garble()
        try:
            SACheckpointer(path, interval=5, strict=True).load()
            strict_typed = False
        except CheckpointIntegrityError:
            strict_typed = True
        ok = resumed is None and quarantined and strict_typed
        return FaultReport(
            fault=fault, ok=ok,
            error=None if ok else (
                f"corrupt checkpoint mishandled (resumed={resumed is not None}, "
                f"quarantined={quarantined}, strict_typed={strict_typed})"
            ),
            error_class="checkpoint", degraded=True,
            value={"quarantined": quarantined, "strict_typed": strict_typed},
        )

    def _inject_journal_worker_crash(self) -> FaultReport:
        """SIGKILL a pool worker mid-batch with the journal attached: the
        surviving job's value must be durably settled, and the crashed
        digest must never appear settled."""
        from ..runtime.journal import JobJournal

        fault = "journal_worker_crash"
        path = os.path.join(self.workdir, "chaos-journal-crash.wal")
        crash = JobSpec("chaos_crash", {"parent_pid": os.getpid()}, seed=self.seed)
        honest = JobSpec("chaos_bad_value", {"fail_times": 0}, seed=self.seed)
        with JobJournal(path) as journal:
            outcomes = self._engine(
                jobs=max(2, self.jobs), journal=journal
            ).run([crash, honest])
        with JobJournal(path) as replayed:
            records = {
                outcome.spec.digest():
                    replayed.settled_record(outcome.spec.digest())
                for outcome in outcomes
            }
            recovered = {spec.digest() for spec in replayed.take_recovered()}
        # The journal must agree with what the engine reported: a digest
        # the engine settled (including via its degraded serial re-run
        # after the worker died) replays with the identical value; a
        # digest it failed is never settled — either recorded failed or
        # reported for re-enqueue, but not a lie about finished work.
        mismatches = []
        for outcome in outcomes:
            record = records[outcome.spec.digest()]
            if outcome.ok:
                if record is None or record.get("value") != outcome.value:
                    mismatches.append(f"{outcome.spec.kind}: value not durable")
            elif record is not None:
                mismatches.append(f"{outcome.spec.kind}: failure settled")
        ok = not mismatches
        return FaultReport(
            fault=fault, ok=ok,
            error=None if ok else "; ".join(mismatches),
            error_class="journal", degraded=True,
            value={"recovered_inflight": sorted(recovered)},
        )

    def run(self) -> Dict[str, FaultReport]:
        """Inject every fault class; returns ``{fault: report}``."""
        return {fault: self.inject(fault) for fault in self.plan()}
