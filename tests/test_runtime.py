"""Unit tests for repro.runtime: specs, cache, engine, telemetry.

Covers the contract the subsystem promises: stable content digests, disk
cache hits/misses, bounded retry, per-job timeout, serial degradation when
workers die, jobs=1 == jobs=N determinism, and telemetry emission from the
SA annealer.
"""

from __future__ import annotations

from repro.assign import assign_design
import json
import os

import pytest

from repro.runtime import (
    MISS,
    JobEngine,
    JobSpec,
    JsonlSink,
    ResultCache,
    Telemetry,
    register_job_type,
    resolve_job_type,
    using_telemetry,
)


# -- test job types --------------------------------------------------------
# Module-level so they pickle into pool workers (fork or spawn via import).


@register_job_type("echo")
def _echo_job(params, seed):
    return {"value": params.get("value", 0), "seed": seed}


@register_job_type("flaky")
def _flaky_job(params, seed):
    """Fails until a file-based counter reaches `fail_times` (the counter
    survives process boundaries, unlike a global)."""
    marker = params["marker"]
    with open(marker, "a") as handle:
        handle.write("x")
    attempts = os.path.getsize(marker)
    if attempts <= params.get("fail_times", 0):
        raise RuntimeError(f"planned failure #{attempts}")
    return {"attempts": attempts}


@register_job_type("sleepy")
def _sleepy_job(params, seed):
    import time

    time.sleep(params["sleep"])
    return {"slept": params["sleep"]}


@register_job_type("worker_killer")
def _worker_killer_job(params, seed):
    # Kill the process only when running in a pool worker; the serial
    # fallback (parent process) survives and returns a value.
    if os.getpid() != params["parent_pid"]:
        os._exit(13)
    return {"survived": True}


@register_job_type("anneal_tiny")
def _anneal_tiny_job(params, seed):
    from repro.circuits import build_design, table1_circuit
    from repro.exchange import FingerPadExchanger, SAParams

    design = build_design(table1_circuit(1), seed=0)
    exchanger = FingerPadExchanger(
        design,
        params=SAParams(initial_temp=0.03, final_temp=0.01, cooling=0.5,
                        moves_per_temp=10),
        polish_passes=0,
    )
    assignments = {}
    from repro.assign import DFAAssigner

    assignments = assign_design(DFAAssigner(), design, seed=seed)
    result = exchanger.run(assignments, seed=seed)
    return {"best_cost": result.stats.best_cost}


class TestJobSpec:
    def test_digest_stable_under_key_order(self):
        a = JobSpec("echo", {"x": 1, "y": 2}, seed=3)
        b = JobSpec("echo", {"y": 2, "x": 1}, seed=3)
        assert a.digest() == b.digest()

    def test_digest_changes_with_params_seed_kind(self):
        base = JobSpec("echo", {"x": 1}, seed=3)
        assert base.digest() != JobSpec("echo", {"x": 2}, seed=3).digest()
        assert base.digest() != JobSpec("echo", {"x": 1}, seed=4).digest()
        assert base.digest() != JobSpec("other", {"x": 1}, seed=3).digest()

    def test_digest_normalizes_equal_numbers(self):
        assert (
            JobSpec("echo", {"x": 1.0}).digest() == JobSpec("echo", {"x": 1}).digest()
        )

    def test_rejects_unserializable_params(self):
        with pytest.raises(TypeError):
            JobSpec("echo", {"x": object()}).digest()

    def test_derived_seed_deterministic_and_distinct(self):
        a = JobSpec("echo", {"x": 1})
        b = JobSpec("echo", {"x": 2})
        assert a.derived_seed(0) == a.derived_seed(0)
        assert a.derived_seed(0) != a.derived_seed(1)
        assert a.derived_seed(0) != b.derived_seed(0)
        assert JobSpec("echo", seed=9).derived_seed(123) == 9

    def test_unknown_job_type(self):
        with pytest.raises(KeyError, match="no-such-kind"):
            resolve_job_type("no-such-kind")


class TestResultCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec("echo", {"x": 1}, seed=0)
        assert cache.get(spec) is MISS
        cache.put(spec, {"value": 42})
        assert cache.get(spec) == {"value": 42}
        assert cache.stats == {
            "hits": 1, "misses": 1, "writes": 1, "invalid": 0, "evicted": 0,
        }

    def test_changed_params_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JobSpec("echo", {"x": 1}), {"v": 1})
        assert cache.get(JobSpec("echo", {"x": 2})) is MISS

    def test_corrupt_entry_reads_as_miss_and_is_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec("echo", {"x": 1})
        path = cache.put(spec, {"v": 1})
        path.write_text("{not json")
        assert cache.get(spec) is MISS
        assert not path.exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JobSpec("echo", {"x": 1}), 1)
        cache.put(JobSpec("flaky", {"x": 1}), 2)
        assert cache.clear(kind="echo") == 1
        assert cache.clear() == 1

    def test_env_var_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert ResultCache().root == tmp_path / "custom"


class TestEngineSerial:
    def test_runs_and_caches(self, tmp_path):
        telemetry = Telemetry()
        cache = ResultCache(tmp_path)
        specs = [JobSpec("echo", {"value": v}, seed=v) for v in range(3)]
        engine = JobEngine(jobs=1, cache=cache, telemetry=telemetry)
        first = engine.run(specs)
        assert [outcome.value["value"] for outcome in first] == [0, 1, 2]
        assert not any(outcome.cached for outcome in first)
        second = JobEngine(jobs=1, cache=ResultCache(tmp_path)).run(specs)
        assert all(outcome.cached for outcome in second)
        assert [o.value for o in second] == [o.value for o in first]
        assert telemetry.snapshot()["cache.misses"] == 3

    def test_retry_until_success(self, tmp_path):
        marker = tmp_path / "marker"
        spec = JobSpec("flaky", {"marker": str(marker), "fail_times": 2})
        engine = JobEngine(jobs=1, retries=2, backoff=0.001)
        outcome = engine.run_one(spec)
        assert outcome.ok and outcome.attempts == 3
        assert outcome.value == {"attempts": 3}

    def test_always_failing_job_reports_error(self, tmp_path):
        telemetry = Telemetry()
        marker = tmp_path / "marker"
        spec = JobSpec("flaky", {"marker": str(marker), "fail_times": 99})
        engine = JobEngine(jobs=1, retries=1, backoff=0.001, telemetry=telemetry)
        outcome = engine.run_one(spec)
        assert not outcome.ok
        assert "planned failure" in outcome.error
        assert outcome.attempts == 2
        assert telemetry.events_named("job.failed")
        # failures are not cached
        assert outcome.value is None


class TestEngineParallel:
    def test_matches_serial(self):
        specs = [JobSpec("echo", {"value": v}, seed=v) for v in range(6)]
        serial = JobEngine(jobs=1).run(specs)
        parallel = JobEngine(jobs=4).run(specs)
        assert [o.value for o in serial] == [o.value for o in parallel]

    def test_parallel_retry(self, tmp_path):
        markers = [tmp_path / f"marker{i}" for i in range(2)]
        specs = [
            JobSpec("flaky", {"marker": str(marker), "fail_times": 1})
            for marker in markers
        ]
        outcomes = JobEngine(jobs=2, retries=1, backoff=0.001).run(specs)
        assert all(outcome.ok for outcome in outcomes)
        assert all(outcome.attempts == 2 for outcome in outcomes)

    def test_timeout_fails_job_without_retry(self):
        telemetry = Telemetry()
        specs = [
            JobSpec("sleepy", {"sleep": 3}),
            JobSpec("echo", {"value": 1}),
        ]
        engine = JobEngine(jobs=2, timeout=0.3, retries=2, telemetry=telemetry)
        outcomes = engine.run(specs)
        assert not outcomes[0].ok and "timed out" in outcomes[0].error
        assert outcomes[1].ok
        assert telemetry.events_named("job.timeout")
        assert telemetry.snapshot()["jobs.timeout"] == 1

    def test_degrades_to_serial_when_worker_dies(self):
        telemetry = Telemetry()
        specs = [
            JobSpec("worker_killer", {"parent_pid": os.getpid(), "n": n})
            for n in range(2)
        ]
        outcomes = JobEngine(jobs=2, retries=0, telemetry=telemetry).run(specs)
        assert all(outcome.ok for outcome in outcomes)
        assert all(outcome.value == {"survived": True} for outcome in outcomes)
        assert telemetry.events_named("engine.degraded")

    def test_degrades_to_serial_when_submit_finds_the_pool_broken(self):
        """A worker that dies before the submit loop ends makes the next
        ``pool.submit`` raise; the run must still degrade to serial."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        class _DyingPool:
            """Breaks after the first submission, as a killed worker does."""

            def __init__(self):
                self.submits = 0

            def submit(self, *args):
                self.submits += 1
                if self.submits > 1:
                    raise BrokenProcessPool("a worker died during submission")
                future = Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        pool = _DyingPool()
        telemetry = Telemetry()
        engine = JobEngine(jobs=2, retries=0, telemetry=telemetry)
        engine._acquire_pool = lambda needed: pool
        specs = [JobSpec("echo", {"value": v}, seed=v) for v in range(3)]
        outcomes = engine.run(specs)
        assert pool.submits == 2
        assert [outcome.value for outcome in outcomes] == [
            {"value": v, "seed": v} for v in range(3)
        ]
        assert [outcome.attempts for outcome in outcomes] == [1, 1, 1]
        (degraded,) = telemetry.events_named("engine.degraded")
        assert degraded["unresolved"] == 3
        statuses = [
            event.get("status")
            for event in telemetry.events_named("span.end")
            if event["name"] == "job"
        ]
        assert statuses.count("degraded") == 2


class TestDeterminism:
    def test_codesign_jobs1_vs_jobs4(self):
        from repro.runtime.workloads import smoke_specs

        specs = smoke_specs(seed=3)
        serial = JobEngine(jobs=1).run(specs)
        parallel = JobEngine(jobs=4).run(specs)
        assert [o.value for o in serial] == [o.value for o in parallel]


class TestTelemetry:
    def test_annealer_emits_events(self):
        telemetry = Telemetry()
        with using_telemetry(telemetry):
            value = resolve_job_type("anneal_tiny")({}, 5)
        assert value["best_cost"] == pytest.approx(value["best_cost"])
        begins = telemetry.events_named("sa.begin")
        steps = telemetry.events_named("sa.step")
        ends = telemetry.events_named("sa.end")
        assert begins and steps and ends
        assert all("acceptance" in event for event in steps)
        assert 0.0 <= ends[-1]["acceptance_ratio"] <= 1.0

    def test_worker_events_reach_parent_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with JsonlSink(trace) as sink:
            telemetry = Telemetry(sink=sink)
            outcomes = JobEngine(jobs=2, telemetry=telemetry).run(
                [JobSpec("anneal_tiny", {}, seed=s) for s in (1, 2)]
            )
        assert all(outcome.ok for outcome in outcomes)
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        sa_events = [e for e in events if e["event"].startswith("sa.")]
        assert sa_events and all("job" in event for event in sa_events)
        assert any(event["event"] == "engine.end" for event in events)

    def test_timer_counter(self):
        telemetry = Telemetry()
        with telemetry.timer("stage", stage="x"):
            pass
        assert telemetry.snapshot()["stage.seconds"] >= 0
        assert telemetry.events_named("stage")[0]["stage"] == "x"


class TestRunExperiment:
    def test_engine_backed_sweep(self, tmp_path):
        from repro.flow import run_experiment

        engine = JobEngine(jobs=2, cache=ResultCache(tmp_path))
        sweep = run_experiment("echo", {"value": 7}, seeds=[1, 2, 3], engine=engine)
        assert sweep["value"].mean == 7
        assert sweep["seed"].count == 3
        # second run is fully cached
        telemetry = Telemetry()
        engine2 = JobEngine(
            jobs=2, cache=ResultCache(tmp_path), telemetry=telemetry
        )
        run_experiment("echo", {"value": 7}, seeds=[1, 2, 3], engine=engine2)
        assert telemetry.snapshot()["cache.hits"] == 3

    def test_failure_raises(self, tmp_path):
        from repro.flow import run_experiment

        marker = tmp_path / "marker"
        engine = JobEngine(jobs=1, retries=0)
        with pytest.raises(RuntimeError, match="failed"):
            run_experiment(
                "flaky",
                {"marker": str(marker), "fail_times": 99},
                seeds=[1],
                engine=engine,
            )


class TestSeedNoneCaching:
    """A seed=None spec must not cache a value another engine config
    cannot reproduce (the digest used to ignore the engine's base_seed
    while the executed seed depended on it)."""

    def test_cache_key_pins_the_effective_seed(self, tmp_path):
        spec = JobSpec("echo", {"value": 1}, seed=None)
        first = JobEngine(cache=ResultCache(tmp_path), base_seed=0).run_one(spec)
        fresh = JobEngine(base_seed=1).run_one(spec)
        # base_seed=1 derives a different seed, so the values must differ...
        assert first.value != fresh.value
        # ...and a cache shared across base seeds must serve each engine
        # the value it would have computed, not whoever wrote first.
        served = JobEngine(cache=ResultCache(tmp_path), base_seed=1).run_one(spec)
        assert served.value == fresh.value

    def test_same_base_seed_still_hits_the_cache(self, tmp_path):
        spec = JobSpec("echo", {"value": 2}, seed=None)
        cache = ResultCache(tmp_path)
        first = JobEngine(cache=cache, base_seed=5).run_one(spec)
        again = JobEngine(cache=ResultCache(tmp_path), base_seed=5).run_one(spec)
        assert again.cached
        assert again.value == first.value

    def test_outcome_spec_carries_the_pinned_seed(self):
        spec = JobSpec("echo", {}, seed=None)
        outcome = JobEngine(base_seed=3).run_one(spec)
        assert outcome.spec.seed == spec.derived_seed(3)
        assert outcome.value["seed"] == outcome.spec.seed

    def test_explicit_seeds_keep_their_digest(self, tmp_path):
        # Established cache entries for seeded specs must stay valid.
        spec = JobSpec("echo", {"value": 3}, seed=11)
        outcome = JobEngine(cache=ResultCache(tmp_path), base_seed=9).run_one(spec)
        assert outcome.spec is spec
        assert outcome.spec.digest() == spec.digest()


class TestRetryAccounting:
    """The retry loop must not book the final (never retried) round as a
    retry, and a degraded job must resume with its remaining budget."""

    def test_parallel_retry_counter_excludes_the_final_round(self, tmp_path):
        telemetry = Telemetry()
        specs = [
            JobSpec("flaky", {"marker": str(tmp_path / f"m{i}"), "fail_times": 99})
            for i in range(2)
        ]
        outcomes = JobEngine(
            jobs=2, retries=2, backoff=0.001, telemetry=telemetry
        ).run(specs)
        assert all(not outcome.ok for outcome in outcomes)
        assert all(outcome.attempts == 3 for outcome in outcomes)
        # 2 retries per job; the final round's failures are failures, not
        # retries, so 3 rounds must book exactly 2 retries each.
        assert telemetry.snapshot()["jobs.retried"] == 4

    def test_final_attempt_span_closes_as_error_not_retry(self, tmp_path):
        telemetry = Telemetry()
        specs = [
            JobSpec("flaky", {"marker": str(tmp_path / f"s{i}"), "fail_times": 99})
            for i in range(2)
        ]
        JobEngine(jobs=2, retries=1, backoff=0.001, telemetry=telemetry).run(specs)
        statuses = [
            event.get("status")
            for event in telemetry.events_named("span.end")
            if event.get("name") == "job"
        ]
        assert statuses.count("retry") == 2
        assert statuses.count("error") == 2

    def test_degraded_serial_resumes_remaining_budget(self, tmp_path):
        marker = tmp_path / "marker"
        engine = JobEngine(jobs=1, retries=1, backoff=0.001)
        spec = JobSpec("flaky", {"marker": str(marker), "fail_times": 99})
        outcome = engine._run_serial(spec, attempts_used=1)
        assert not outcome.ok
        # one attempt was already spent in the pool: exactly one serial run.
        assert os.path.getsize(marker) == 1
        assert outcome.attempts == 2

    def test_degraded_serial_exhausted_budget_runs_nothing(self, tmp_path):
        marker = tmp_path / "marker"
        engine = JobEngine(jobs=1, retries=1, backoff=0.001)
        spec = JobSpec("flaky", {"marker": str(marker), "fail_times": 99})
        outcome = engine._run_serial(
            spec, attempts_used=2, last_error="RuntimeError: pool boom",
            last_class="logic",
        )
        assert not outcome.ok
        assert outcome.error == "RuntimeError: pool boom"
        assert outcome.error_class == "logic"
        assert outcome.attempts == 2
        assert not marker.exists()

    def test_degraded_serial_can_still_succeed(self, tmp_path):
        marker = tmp_path / "marker"
        marker.write_text("x")  # the pool attempt ran once before dying
        engine = JobEngine(jobs=1, retries=2, backoff=0.001)
        spec = JobSpec("flaky", {"marker": str(marker), "fail_times": 2})
        outcome = engine._run_serial(spec, attempts_used=1)
        assert outcome.ok
        assert outcome.attempts == 3


class TestWarmEngine:
    """The persistent worker pool behind the serving daemon."""

    def test_warm_pool_persists_across_runs(self):
        telemetry = Telemetry()
        engine = JobEngine(jobs=2, warm=True, telemetry=telemetry)
        try:
            first = engine.run([JobSpec("echo", {"value": v}, seed=v) for v in range(3)])
            second = engine.run([JobSpec("echo", {"value": v}, seed=v) for v in range(3, 6)])
        finally:
            engine.close()
        assert all(outcome.ok for outcome in first + second)
        assert telemetry.snapshot()["engine.pool_starts"] == 1

    def test_warm_routes_single_job_through_pool(self):
        # A cold engine runs a lone job serially (no pool spin-up); a warm
        # one keeps even singletons on its persistent pool so the serving
        # daemon's event loop thread never computes.
        cold_telemetry = Telemetry()
        cold = JobEngine(jobs=2, telemetry=cold_telemetry)
        assert cold.run([JobSpec("echo", {"value": 1}, seed=1)])[0].ok
        assert "engine.pool_starts" not in cold_telemetry.snapshot()

        warm_telemetry = Telemetry()
        warm = JobEngine(jobs=2, warm=True, telemetry=warm_telemetry)
        try:
            assert warm.run([JobSpec("echo", {"value": 1}, seed=1)])[0].ok
        finally:
            warm.close()
        assert warm_telemetry.snapshot()["engine.pool_starts"] == 1

    def test_close_releases_and_is_idempotent(self):
        telemetry = Telemetry()
        engine = JobEngine(jobs=2, warm=True, telemetry=telemetry)
        engine.run([JobSpec("echo", {"value": 1}, seed=1)])
        engine.close()
        engine.close()  # second close is a no-op
        # Running again after close transparently starts a fresh pool.
        outcome = engine.run([JobSpec("echo", {"value": 2}, seed=2)])[0]
        engine.close()
        assert outcome.ok
        assert telemetry.snapshot()["engine.pool_starts"] == 2

    def test_broken_warm_pool_is_discarded_not_reused(self):
        telemetry = Telemetry()
        engine = JobEngine(jobs=2, warm=True, retries=0, telemetry=telemetry)
        try:
            killed = engine.run([
                JobSpec("worker_killer", {"parent_pid": os.getpid(), "n": n})
                for n in range(2)
            ])
            assert all(outcome.ok for outcome in killed)  # serial fallback
            assert telemetry.events_named("engine.degraded")
            # The next run must not inherit the poisoned pool.
            after = engine.run([JobSpec("echo", {"value": 7}, seed=7)])[0]
        finally:
            engine.close()
        assert after.ok
        assert telemetry.snapshot()["engine.pool_starts"] == 2
