"""The job engine: process-pool fan-out with cache, retry and timeouts.

Execution policy, in order:

1. every spec is first looked up in the cache (when one is attached);
2. remaining jobs run on a ``ProcessPoolExecutor`` when ``jobs > 1``,
   in-process otherwise;
3. a job that raises is retried up to ``retries`` times with exponential
   backoff (``backoff * 2**round`` seconds between rounds);
4. a job that exceeds ``timeout`` seconds is failed permanently — a hung
   computation would hang again, so it is not retried;
5. a dead worker (``BrokenProcessPool``) degrades every unresolved job to
   serial in-process execution rather than failing the run.

Long-running callers (the ``repro.serve`` daemon) construct the engine
with ``warm=True``: the process pool is created once, its workers pre-pay
the heavy imports (NumPy, the flow/kernel layers) in an initializer, and
every subsequent :meth:`JobEngine.run` reuses it — amortizing process
spawn + module import across requests.  A warm pool that breaks is
discarded (the run degrades to serial as usual) and the next run builds a
fresh one; :meth:`JobEngine.close` (or using the engine as a context
manager) releases the workers.

Workers run the job under a private :class:`Telemetry` and ship the events
back with the result, so SA-loop events from a subprocess appear in the
parent's trace tagged with the job label.  Determinism: each job draws its
seed from the spec (or the spec digest mixed with ``base_seed``), so the
results are identical for ``jobs=1`` and ``jobs=N``.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import classify_error
from ..obs.metrics import QUEUE_WAIT_BUCKETS
from ..obs.profile import PROFILE_MODES, make_profiler, profile_to_event
from ..obs.spans import attached_to, open_span, span
from ..verify.policy import OFF, STRICT, normalize as normalize_policy
from .cache import MISS, ResultCache
from .journal import JobJournal
from .spec import JobSpec, resolve_job_type
from .telemetry import Telemetry, get_telemetry, using_telemetry


@dataclass
class _PoolProgress:
    """Per-job retry budget already spent in the pool before it degraded.

    ``attempts`` counts only *confirmed* pool executions (futures whose
    failure we observed); a future in flight when the pool died may or may
    not have run, so it is not charged against the budget.
    """

    attempts: int = 0
    error: Optional[str] = None
    error_class: Optional[str] = None


def _warm_worker() -> None:
    """Pool initializer for warm engines: pre-pay the heavy imports.

    A cold worker spends its first job importing NumPy and the
    flow/kernel layers; doing it at pool creation moves that cost out of
    the first request's latency.  Import failures are deliberately
    swallowed — a worker that cannot pre-import will surface the real
    error when a job actually needs the module.
    """
    try:
        import numpy  # noqa: F401

        from .. import flow  # noqa: F401
        from ..kernels import exchange  # noqa: F401
        from . import jobs  # noqa: F401 - registers the built-in job types
    except Exception:  # pragma: no cover - only on broken installs
        pass


@dataclass
class JobOutcome:
    """What happened to one spec: a value, a cache hit, or an error."""

    spec: JobSpec
    value: object = None
    error: Optional[str] = None
    #: Taxonomy class of the failure (``errors.classify_error``), when any.
    error_class: Optional[str] = None
    cached: bool = False
    #: True when the value was replayed from the write-ahead journal (a
    #: previous process settled it and crashed before anyone read it).
    journal: bool = False
    attempts: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def _execute_job(
    kind: str,
    params: dict,
    seed: Optional[int],
    parent_span: Optional[str] = None,
    submitted: Optional[float] = None,
    profile: Optional[str] = None,
):
    """Worker-side entry point: run one job under a private telemetry.

    Module-level so it pickles.  Returns a dict so the wire format can
    grow fields without breaking unpacking:

    - ``value`` / ``events`` / ``seconds`` — the result, the worker-local
      telemetry events, and the job wall time;
    - ``epoch`` — wall-clock creation time of the worker telemetry, so the
      parent can rebase the events' relative timestamps onto its own
      timeline (``offset = epoch - parent.epoch``);
    - ``queue_wait`` — seconds between engine-side submission (the
      ``submitted`` wall-clock) and the worker picking the job up.

    ``parent_span`` roots every span the job opens under the engine-side
    ``job`` span, even across the process boundary; passing ``None`` still
    clears whatever span context the fork inherited.
    """
    runner = resolve_job_type(kind)
    telemetry = Telemetry()
    queue_wait = (
        max(0.0, time.time() - submitted) if submitted is not None else None
    )
    profiler = make_profiler(profile)
    start = time.perf_counter()
    with using_telemetry(telemetry), attached_to(parent_span):
        if profiler is not None:
            profiler.start()
        try:
            value = runner(params, seed)
        finally:
            if profiler is not None:
                profiler.stop()
        seconds = time.perf_counter() - start
        if profiler is not None:
            telemetry.emit("profile", **profile_to_event(profiler, seconds))
        telemetry.metrics.flush()
    return {
        "value": value,
        "events": telemetry.events,
        "seconds": seconds,
        "queue_wait": queue_wait,
        "epoch": telemetry.epoch,
    }


class JobEngine:
    """Run :class:`JobSpec` lists with caching, parallelism and retries."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        telemetry: Optional[Telemetry] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.05,
        base_seed: int = 0,
        verify: str = OFF,
        profile: Optional[str] = None,
        warm: bool = False,
        journal: Optional[JobJournal] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if profile is not None and profile not in PROFILE_MODES:
            raise ValueError(
                f"profile must be one of {PROFILE_MODES} or None, got {profile!r}"
            )
        self.jobs = jobs
        #: Per-job profiling mode (``"cprofile"`` | ``"sample"`` | ``None``);
        #: each executed job emits one ``profile`` event when set.
        self.profile = profile
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.base_seed = base_seed
        #: Result-verification policy: ``off`` (trust job values), ``strict``
        #: (invalid result fails the job immediately) or ``repair`` (invalid
        #: result is recomputed like any other failure).  Cached values are
        #: always re-checked under an active policy; an invalid entry is
        #: dropped and re-run — never served.
        self.verify = normalize_policy(verify)
        #: Keep one process pool alive across :meth:`run` calls (daemon
        #: mode); workers pre-import the heavy layers via ``_warm_worker``.
        self.warm = warm
        #: Optional write-ahead journal: every lifecycle transition of an
        #: executed spec is logged before it is acted on, settled digests
        #: answer from the journal without re-execution, and the specs that
        #: were in flight when the journal was opened are exposed once via
        #: :meth:`recovered_specs` for re-enqueueing.
        self.journal = journal
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ----------------------------------------------------

    def _acquire_pool(self, needed: int) -> ProcessPoolExecutor:
        """A pool to run *needed* jobs on: persistent when warm, else fresh."""
        if not self.warm:
            return ProcessPoolExecutor(max_workers=min(self.jobs, needed))
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_warm_worker
            )
            self.telemetry.emit("engine.pool_start", workers=self.jobs)
            self.telemetry.count("engine.pool_starts")
        return self._pool

    def _release_pool(self, pool: ProcessPoolExecutor, broken: bool) -> None:
        """Return a pool after a run: warm pools persist unless broken.

        ``wait=False``: a worker stuck past its timeout must not block us.
        """
        if self.warm and not broken and pool is self._pool:
            return
        if pool is self._pool:
            self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Release the persistent warm pool, if one is alive (idempotent)."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public ------------------------------------------------------------

    def _effective_spec(self, spec: JobSpec) -> JobSpec:
        """Pin a seedless spec to the seed it will actually execute with.

        A ``seed=None`` spec runs under ``derived_seed(base_seed)`` — a
        value that depends on this engine's configuration — while its
        content digest said nothing about it.  Two engines with different
        ``base_seed`` would then exchange results through the cache even
        though they compute different values (the first writer poisons
        every later reader).  Resolving the effective seed into the spec
        *before* the cache lookup makes the digest describe the actual
        computation; specs that already carry a seed are untouched, so
        established cache entries stay valid.
        """
        if spec.seed is not None:
            return spec
        return JobSpec(spec.kind, spec.params, seed=spec.derived_seed(self.base_seed))

    def run(self, specs: Sequence[JobSpec]) -> List[JobOutcome]:
        """Execute *specs*; the outcome list matches the input order.

        Seedless specs are normalized first (see :meth:`_effective_spec`),
        so the outcomes' ``spec`` fields carry the pinned seed.
        """
        specs = [self._effective_spec(spec) for spec in specs]
        telemetry = self.telemetry
        started = time.perf_counter()
        outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
        metrics = telemetry.metrics

        with span("engine", telemetry, jobs=self.jobs):
            # The cache reports invalid entries via the *active* telemetry,
            # so install the engine's for the lookup phase.
            with using_telemetry(telemetry):
                for index, spec in enumerate(specs):
                    if self.cache is not None:
                        value = self.cache.get(spec)
                        if value is not MISS and self.verify != OFF:
                            invalid = self._validate_value(spec, value, source="cache")
                            if invalid is not None:
                                # A semantically invalid entry is as bad as a
                                # corrupt one: drop it and recompute instead of
                                # tabulating it.
                                self.cache.invalidate(spec)
                                value = MISS
                        if value is not MISS:
                            outcomes[index] = JobOutcome(
                                spec=spec, value=value, cached=True
                            )
                            telemetry.count("cache.hits")
                            metrics.counter("cache.hits").inc()
                            telemetry.emit(
                                "job.cached", job=spec.label(), kind=spec.kind
                            )
                            continue
                        telemetry.count("cache.misses")
                        metrics.counter("cache.misses").inc()
                    outcome = self._journal_lookup(spec)
                    if outcome is not None:
                        outcomes[index] = outcome

            pending = [i for i, outcome in enumerate(outcomes) if outcome is None]
            if self.journal is not None:
                # Write-ahead: admission and start are on disk before any
                # work happens, so a crash from here on leaves the digest
                # in flight for the next process to recover exactly once.
                for index in pending:
                    self.journal.record_submitted(specs[index])
                    self.journal.record_started(specs[index].digest())
            telemetry.emit(
                "engine.start",
                jobs=self.jobs,
                total=len(specs),
                cached=len(specs) - len(pending),
                pending=len(pending),
            )

            carry: Dict[int, _PoolProgress] = {}
            # A warm engine routes even a lone job through its persistent
            # pool: the workers are already paid for, and keeping compute
            # out of the calling thread is the point in daemon mode.
            if self.jobs > 1 and (len(pending) > 1 or (self.warm and pending)):
                pending, carry = self._run_parallel(specs, pending, outcomes)
            for index in pending:
                progress = carry.get(index, _PoolProgress())
                outcomes[index] = self._run_serial(
                    specs[index],
                    attempts_used=progress.attempts,
                    last_error=progress.error,
                    last_class=progress.error_class,
                )

            failures = 0
            for outcome in outcomes:
                if not outcome.ok:
                    failures += 1
                    if self.journal is not None:
                        self.journal.record_failed(
                            outcome.spec.digest(),
                            outcome.error,
                            error_class=outcome.error_class,
                        )
                    continue
                if self.journal is not None and not outcome.journal:
                    # Settle cache hits too: the journal is the restart
                    # registry, and an idempotent settle of a known digest
                    # costs one dict lookup, not an fsync.
                    self.journal.record_settled(
                        outcome.spec,
                        outcome.value,
                        attempts=outcome.attempts,
                        seconds=outcome.seconds,
                        cached=outcome.cached,
                    )
                if self.cache is not None and not outcome.cached:
                    with using_telemetry(telemetry):
                        self.cache.put(outcome.spec, outcome.value)
            telemetry.count("jobs.total", len(specs))
            telemetry.count("jobs.failed", failures)
            metrics.flush()
            telemetry.emit(
                "engine.end",
                total=len(specs),
                failures=failures,
                seconds=round(time.perf_counter() - started, 6),
                **(self.cache.stats if self.cache is not None else {}),
            )
        return outcomes

    def run_one(self, spec: JobSpec) -> JobOutcome:
        return self.run([spec])[0]

    def recovered_specs(self) -> List[JobSpec]:
        """Specs left in flight by a crashed predecessor, exactly once.

        Consumes the journal's recovery snapshot; without a journal (or on
        any later call) the list is empty.  Callers re-enqueue these
        through :meth:`run` like fresh submissions — the journal's
        ``record_submitted`` dedup makes the replay idempotent.
        """
        if self.journal is None:
            return []
        return self.journal.take_recovered()

    # -- journal -----------------------------------------------------------

    def _journal_lookup(self, spec: JobSpec) -> Optional[JobOutcome]:
        """Answer *spec* from the journal's settled records, if possible.

        A settled value is re-checked under the verify policy like any
        cached value; an invalid one is superseded with a ``failed``
        record (so replay stops serving it) and the spec re-runs.
        """
        if self.journal is None:
            return None
        record = self.journal.settled_record(spec.digest())
        if record is None:
            return None
        value = record.get("value")
        invalid = self._validate_value(spec, value, source="journal")
        if invalid is not None:
            self.journal.record_failed(
                spec.digest(), invalid, error_class="verification"
            )
            return None
        self.telemetry.count("journal.hits")
        self.telemetry.metrics.counter("journal.hits").inc()
        self.telemetry.emit("job.journal", job=spec.label(), kind=spec.kind)
        return JobOutcome(
            spec=spec,
            value=value,
            cached=bool(record.get("cached", False)),
            journal=True,
            attempts=int(record.get("attempts", 1) or 0),
        )

    # -- verification ------------------------------------------------------

    def _validate_value(self, spec: JobSpec, value, source: str) -> Optional[str]:
        """Check one job value under the verify policy.

        Returns ``None`` when the value passes (or the policy is off),
        otherwise an error string; emits a ``job.invalid`` telemetry event
        carrying the machine-readable diagnostic codes.
        """
        if self.verify == OFF:
            return None
        from ..verify import check_job_value

        report = check_job_value(spec.kind, value)
        if report.ok:
            return None
        self.telemetry.count("jobs.invalid")
        self.telemetry.emit(
            "job.invalid",
            job=spec.label(),
            kind=spec.kind,
            source=source,
            codes=report.codes("error"),
            error=str(report.errors[0]),
        )
        head = "; ".join(str(d) for d in report.errors[:3])
        return f"VerificationError: invalid {source} result: {head}"

    # -- serial ------------------------------------------------------------

    def _run_serial(
        self,
        spec: JobSpec,
        attempts_used: int = 0,
        last_error: Optional[str] = None,
        last_class: Optional[str] = None,
    ) -> JobOutcome:
        """In-process execution with the retry policy (no timeout: a hung
        job in-process cannot be interrupted portably).

        ``attempts_used`` is the retry budget already spent before this
        call (pool attempts that failed before the pool degraded); the
        serial rounds resume from there instead of granting a fresh
        budget.  When the budget is already exhausted the job fails
        immediately with the carried-over ``last_error``/``last_class``.
        """
        telemetry = self.telemetry
        if attempts_used > self.retries:
            telemetry.emit(
                "job.failed", job=spec.label(), kind=spec.kind,
                error=last_error or "retry budget exhausted in pool",
                error_class=last_class,
            )
            return JobOutcome(
                spec=spec,
                error=last_error or "retry budget exhausted in pool",
                error_class=last_class,
                attempts=attempts_used,
            )
        runner = resolve_job_type(spec.kind)
        seed = spec.derived_seed(self.base_seed)
        last_error = last_error or "never ran"
        attempts = attempts_used
        with span("job", telemetry, job=spec.label(), kind=spec.kind):
            for round_ in range(attempts_used, self.retries + 1):
                attempts = round_ + 1
                if round_:
                    time.sleep(self.backoff * (2 ** (round_ - 1)))
                    telemetry.count("jobs.retried")
                    telemetry.metrics.counter("engine.retries").inc()
                    if self.journal is not None:
                        self.journal.record_retried(spec.digest(), attempt=round_ + 1)
                profiler = make_profiler(self.profile)
                start = time.perf_counter()
                try:
                    with using_telemetry(telemetry):
                        if profiler is not None:
                            profiler.start()
                        try:
                            value = runner(dict(spec.params), seed)
                        finally:
                            if profiler is not None:
                                profiler.stop()
                except (KeyboardInterrupt, SystemExit):
                    # Control flow, not a job failure: never swallow, never retry.
                    raise
                except Exception as exc:  # noqa: BLE001 - jobs may fail arbitrarily
                    last_error = f"{type(exc).__name__}: {exc}"
                    last_class = classify_error(exc)
                    telemetry.emit(
                        "job.error", job=spec.label(), kind=spec.kind,
                        error=last_error, error_class=last_class,
                        traceback=traceback.format_exc(), attempt=round_ + 1,
                    )
                    continue
                seconds = time.perf_counter() - start
                if profiler is not None:
                    telemetry.emit(
                        "profile", job=spec.label(),
                        **profile_to_event(profiler, seconds),
                    )
                invalid = self._validate_value(spec, value, source="serial")
                if invalid is not None:
                    last_error, last_class = invalid, "verification"
                    if self.verify == STRICT:
                        # strict: an invalid result is a verdict, not a flake.
                        break
                    continue
                telemetry.emit(
                    "job.done", job=spec.label(), kind=spec.kind,
                    seconds=round(seconds, 6), attempts=round_ + 1, mode="serial",
                )
                return JobOutcome(
                    spec=spec, value=value, attempts=round_ + 1, seconds=seconds
                )
            telemetry.emit(
                "job.failed", job=spec.label(), kind=spec.kind,
                error=last_error, error_class=last_class,
            )
        return JobOutcome(
            spec=spec, error=last_error, error_class=last_class,
            attempts=attempts,
        )

    # -- parallel ----------------------------------------------------------

    def _run_parallel(
        self,
        specs: Sequence[JobSpec],
        indexes: List[int],
        outcomes: List[Optional[JobOutcome]],
    ) -> Tuple[List[int], Dict[int, _PoolProgress]]:
        """Pool execution for *indexes*; fills ``outcomes`` in place.

        Returns ``(unresolved, progress)``: the indexes that must fall
        back to serial execution (non-empty only when the pool broke
        underneath us) and, per unresolved index, the retry budget it
        already spent in the pool so the serial fallback resumes rather
        than restarts it.
        """
        telemetry = self.telemetry
        metrics = telemetry.metrics
        wait_histogram = metrics.histogram("engine.queue_wait", QUEUE_WAIT_BUCKETS)
        pool = self._acquire_pool(len(indexes))
        degraded = False
        timed_out = False
        try:
            remaining = list(indexes)
            errors: Dict[int, str] = {}
            classes: Dict[int, str] = {}
            for round_ in range(self.retries + 1):
                if round_:
                    # Book the retries when they happen (round start), not
                    # when failures are collected: the final round's
                    # failures are terminal, never retried.
                    time.sleep(self.backoff * (2 ** (round_ - 1)))
                    telemetry.count("jobs.retried", len(remaining))
                    metrics.counter("engine.retries").inc(len(remaining))
                    if self.journal is not None:
                        for i in remaining:
                            self.journal.record_retried(
                                specs[i].digest(), attempt=round_ + 1
                            )
                futures = {}
                handles = {}
                for i in remaining:
                    # One engine-side span per submission; its id travels to
                    # the worker, which roots the job's own spans under it.
                    handle = open_span(
                        "job", telemetry, job=specs[i].label(), kind=specs[i].kind
                    )
                    try:
                        futures[i] = pool.submit(
                            _execute_job,
                            specs[i].kind,
                            dict(specs[i].params),
                            specs[i].derived_seed(self.base_seed),
                            handle.span_id if handle is not None else None,
                            time.time(),
                            self.profile,
                        )
                    except BrokenProcessPool:
                        # A job submitted earlier killed its worker before
                        # this loop finished.  Degrade as a broken
                        # future.result() does: the jobs already handed
                        # to the dead pool re-run serially, unread.
                        if handle is not None:
                            handle.close(status="degraded")
                        futures.clear()
                        degraded = True
                        break
                    handles[i] = handle
                failed: List[int] = []
                for i, future in futures.items():
                    spec = specs[i]
                    handle = handles.pop(i)
                    status = "error"
                    try:
                        try:
                            result = future.result(timeout=self.timeout)
                            value = result["value"]
                            seconds = result["seconds"]
                        except FutureTimeout:
                            future.cancel()
                            # The worker is still grinding on the job; a
                            # warm pool must not inherit the busy worker.
                            timed_out = True
                            status = "timeout"
                            outcomes[i] = JobOutcome(
                                spec=spec,
                                error=f"timed out after {self.timeout}s",
                                error_class="timeout",
                                attempts=round_ + 1,
                            )
                            telemetry.count("jobs.timeout")
                            telemetry.emit(
                                "job.timeout", job=spec.label(), kind=spec.kind,
                                timeout=self.timeout,
                            )
                        except (KeyboardInterrupt, SystemExit):
                            # Control flow, not a job failure: never swallow.
                            raise
                        except BrokenProcessPool:
                            degraded = True
                            break
                        except Exception as exc:  # noqa: BLE001
                            status = "retry" if round_ < self.retries else "error"
                            failed.append(i)
                            errors[i] = f"{type(exc).__name__}: {exc}"
                            classes[i] = classify_error(exc)
                            telemetry.emit(
                                "job.error", job=spec.label(), kind=spec.kind,
                                error=errors[i], error_class=classes[i],
                                traceback="".join(
                                    traceback.format_exception(
                                        type(exc), exc, exc.__traceback__
                                    )
                                ),
                                attempt=round_ + 1,
                            )
                        else:
                            # Rebase the worker's relative timestamps onto
                            # this telemetry's timeline via the wall-clock
                            # epochs, then re-emit under the job's label.
                            telemetry.ingest(
                                result["events"],
                                offset=result["epoch"] - telemetry.epoch,
                                job=spec.label(),
                            )
                            queue_wait = result["queue_wait"]
                            if queue_wait is not None:
                                wait_histogram.record(queue_wait)
                            invalid = self._validate_value(spec, value, source="pool")
                            if invalid is not None:
                                errors[i], classes[i] = invalid, "verification"
                                if self.verify == STRICT:
                                    status = "invalid"
                                    outcomes[i] = JobOutcome(
                                        spec=spec, error=invalid,
                                        error_class="verification",
                                        attempts=round_ + 1,
                                    )
                                    telemetry.emit(
                                        "job.failed", job=spec.label(),
                                        kind=spec.kind, error=invalid,
                                        error_class="verification",
                                    )
                                else:
                                    # repair: recompute like any other failure.
                                    status = (
                                        "retry" if round_ < self.retries
                                        else "invalid"
                                    )
                                    failed.append(i)
                                continue
                            status = "ok"
                            done_fields = {}
                            if queue_wait is not None:
                                done_fields["queue_wait"] = round(queue_wait, 6)
                            telemetry.emit(
                                "job.done", job=spec.label(), kind=spec.kind,
                                seconds=round(seconds, 6), attempts=round_ + 1,
                                mode="pool", **done_fields,
                            )
                            outcomes[i] = JobOutcome(
                                spec=spec, value=value,
                                attempts=round_ + 1, seconds=seconds,
                            )
                    finally:
                        if handle is not None:
                            handle.close(status="degraded" if degraded else status)
                # Push this round's cumulative snapshot to the sink now
                # rather than only at run() end, so the daemon's /v1/stats
                # mid-batch reflects completed work.  Safe to repeat: the
                # live registry delta-folds per source and the post-hoc
                # analyser keeps the last snapshot per tag.
                metrics.flush()
                if degraded:
                    break
                if not failed:
                    return [], {}
                remaining = failed
            if degraded:
                # Close the spans of jobs whose futures we never consumed.
                for handle in handles.values():
                    if handle is not None:
                        handle.close(status="degraded")
                unresolved = [i for i in indexes if outcomes[i] is None]
                telemetry.count("engine.degraded")
                metrics.counter("engine.worker_restarts").inc()
                telemetry.emit(
                    "engine.degraded",
                    reason="worker process died",
                    unresolved=len(unresolved),
                )
                progress = {
                    i: _PoolProgress(
                        attempts=round_ + 1 if i in failed else round_,
                        error=errors.get(i),
                        error_class=classes.get(i),
                    )
                    for i in unresolved
                }
                return unresolved, progress
            # Retry rounds exhausted: the survivors of `remaining` failed.
            for i in remaining:
                spec = specs[i]
                error = errors.get(i, "failed in worker")
                outcomes[i] = JobOutcome(
                    spec=spec, error=error, error_class=classes.get(i),
                    attempts=self.retries + 1,
                )
                telemetry.emit(
                    "job.failed", job=spec.label(), kind=spec.kind,
                    error=error, error_class=classes.get(i),
                )
            return [], {}
        finally:
            self._release_pool(pool, broken=degraded or timed_out)
