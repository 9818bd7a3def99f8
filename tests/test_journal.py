"""Durability tests: job journal, SA checkpoints, retrying client, recovery.

Covers the crash-safety contract PR 7 added across the stack:

- :class:`JobJournal` replay semantics — empty files, torn tails,
  interior corruption (typed, never guessed around), last-wins settles,
  the exactly-once ``submitted`` guard, failure supersession, compaction;
- :class:`JobEngine` integration — settled digests answer from the
  journal without re-execution, in-flight specs recover exactly once;
- :class:`SACheckpointer` — atomic saves, corrupt checkpoints read as
  absent (lax) or raise (strict), foreign run keys read as absent, and a
  crash-interrupted anneal resumes bit-identically;
- :class:`ServeClient` retry policy — jittered exponential backoff,
  ``Retry-After`` override, transport-error retry, retries=0 rawness;
- the daemon — registry recovery from the journal across a restart
  (in-process), SSE ``Last-Event-ID`` resumption on the wire, and a real
  ``kill -9`` subprocess round-trip re-executing only in-flight work.
"""

from __future__ import annotations

from repro.assign import assign_design
import signal
import time
from pathlib import Path

import pytest

from repro.errors import CheckpointIntegrityError, JournalCorruptionError
from repro.runtime import JobEngine, JobSpec, register_job_type
from repro.runtime.journal import JobJournal, spec_from_record
from repro.serve import ServeClient, ServeConfig, ServeHandle
from repro.serve.client import _parse_retry_after


# -- test job types --------------------------------------------------------
# Module-level so they resolve in the daemon's dispatcher thread; names are
# unique to this module (the registry is process-global).


@register_job_type("jwal_echo")
def _jwal_echo_job(params, seed):
    return {"value": params.get("value", 0), "seed": seed}


@register_job_type("jwal_count")
def _jwal_count_job(params, seed):
    """Counts executions through a file so re-runs are observable."""
    marker = Path(params["marker"])
    with open(marker, "a") as handle:
        handle.write("x")
    return {"executions": marker.stat().st_size, "seed": seed}


def _spec(value: int = 1, seed: int = 0) -> JobSpec:
    return JobSpec("jwal_echo", {"value": value}, seed=seed)


# -- journal replay --------------------------------------------------------


class TestJournalReplay:
    def test_missing_file_reads_empty(self, tmp_path):
        with JobJournal(tmp_path / "jobs.wal") as journal:
            assert journal.settled_records() == {}
            assert journal.inflight_digests() == []
            assert journal.take_recovered() == []

    def test_lifecycle_roundtrip(self, tmp_path):
        path = tmp_path / "jobs.wal"
        spec = _spec()
        with JobJournal(path) as journal:
            assert journal.record_submitted(spec)
            journal.record_started(spec.digest())
            journal.record_settled(spec, {"answer": 42}, seconds=0.5)
        with JobJournal(path) as journal:
            record = journal.settled_record(spec.digest())
            assert record["value"] == {"answer": 42}
            assert journal.inflight_digests() == []
            rebuilt = spec_from_record(record)
            assert rebuilt is not None and rebuilt.digest() == spec.digest()

    def test_spec_from_record_tolerates_garbage(self):
        assert spec_from_record({}) is None
        assert spec_from_record({"spec": "not-a-dict"}) is None
        assert spec_from_record({"spec": {"params": {}}}) is None  # no kind

    def test_torn_tail_dropped_and_counted(self, tmp_path):
        path = tmp_path / "jobs.wal"
        spec = _spec()
        with JobJournal(path) as journal:
            journal.record_submitted(spec)
            journal.record_settled(spec, {"answer": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"rec": "sett')  # kill -9 mid-append
        with JobJournal(path) as journal:
            assert journal.diagnostics["torn_tail"] == 1
            assert journal.settled_record(spec.digest())["value"] == {
                "answer": 1
            }

    def test_interior_corruption_raises_typed(self, tmp_path):
        path = tmp_path / "jobs.wal"
        with JobJournal(path) as journal:
            journal.record_submitted(_spec())
        lines = path.read_text().splitlines()
        lines.insert(0, "NOT A JOURNAL RECORD")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError):
            JobJournal(path)

    def test_duplicate_settled_last_wins(self, tmp_path):
        # Two engines racing on a shared journal: replay keeps the later
        # record and counts the race, it never raises.
        path = tmp_path / "jobs.wal"
        spec = _spec()
        with JobJournal(path) as journal:
            journal.record_settled(spec, {"answer": "old"})
        with JobJournal(path) as foreign:
            foreign._settled.clear()  # simulate a second blind writer
            foreign.record_settled(spec, {"answer": "new"})
        with JobJournal(path) as journal:
            assert journal.settled_record(spec.digest())["value"] == {
                "answer": "new"
            }
            assert journal.diagnostics["duplicate_settled"] == 1

    def test_submitted_is_exactly_once(self, tmp_path):
        spec = _spec()
        with JobJournal(tmp_path / "jobs.wal") as journal:
            assert journal.record_submitted(spec)
            assert not journal.record_submitted(spec)  # already in flight
            journal.record_settled(spec, {})
            assert not journal.record_submitted(spec)  # already settled

    def test_failed_is_terminal_until_resubmitted(self, tmp_path):
        path = tmp_path / "jobs.wal"
        spec = _spec()
        with JobJournal(path) as journal:
            journal.record_submitted(spec)
            journal.record_failed(spec.digest(), "boom", "RuntimeError")
        with JobJournal(path) as journal:
            assert spec.digest() in journal.failed_records()
            assert journal.take_recovered() == []  # failed, not in flight
            assert journal.record_submitted(spec)  # supersedes the failure
        with JobJournal(path) as journal:
            assert journal.failed_records() == {}
            assert [s.digest() for s in journal.take_recovered()] == [
                spec.digest()
            ]

    def test_take_recovered_consumes_the_snapshot(self, tmp_path):
        path = tmp_path / "jobs.wal"
        with JobJournal(path) as journal:
            journal.record_submitted(_spec())
        with JobJournal(path) as journal:
            assert len(journal.take_recovered()) == 1
            assert journal.take_recovered() == []

    def test_compaction_keeps_live_state_and_shrinks(self, tmp_path):
        path = tmp_path / "jobs.wal"
        with JobJournal(path, fsync=False, compact_bytes=None) as journal:
            for value in range(50):
                spec = _spec(value=value)
                journal.record_submitted(spec)
                journal.record_started(spec.digest())
                journal.record_settled(spec, {"value": value})
            inflight = _spec(value=999)
            journal.record_submitted(inflight)
            failed = _spec(value=998)
            journal.record_submitted(failed)
            journal.record_failed(failed.digest(), "boom")
            before = path.stat().st_size
            journal.compact()
            assert journal.diagnostics["compactions"] == 1
        assert path.stat().st_size < before
        with JobJournal(path) as journal:
            assert len(journal.settled_records()) == 50
            assert journal.inflight_digests() == [inflight.digest()]
            assert list(journal.failed_records()) == [failed.digest()]

    def test_size_trigger_compacts_automatically(self, tmp_path):
        path = tmp_path / "jobs.wal"
        with JobJournal(path, fsync=False, compact_bytes=2048) as journal:
            for value in range(200):
                spec = _spec(value=value % 3)  # 3 live digests, 200 appends
                journal._settled.pop(spec.digest(), None)
                journal.record_settled(spec, {"value": value})
            assert journal.diagnostics["compactions"] >= 1
        assert path.stat().st_size <= 2048

    def test_summary_shape(self, tmp_path):
        with JobJournal(tmp_path / "jobs.wal") as journal:
            journal.record_submitted(_spec())
            summary = journal.summary()
        for key in ("path", "bytes", "seq", "records",
                    "settled", "inflight", "failed", "diagnostics"):
            assert key in summary
        assert summary["inflight"] == 1


# -- engine integration ----------------------------------------------------


class TestEngineJournal:
    def test_settled_digest_answers_without_rerun(self, tmp_path):
        marker = tmp_path / "marker"
        spec = JobSpec("jwal_count", {"marker": str(marker)}, seed=1)
        path = tmp_path / "jobs.wal"
        with JobJournal(path) as journal:
            first = JobEngine(jobs=1, journal=journal).run_one(spec)
        assert first.ok and not first.journal
        assert marker.stat().st_size == 1
        # A fresh engine (fresh process, conceptually) on the same journal:
        # the settled record answers; the job function never runs again.
        with JobJournal(path) as journal:
            second = JobEngine(jobs=1, journal=journal).run_one(spec)
        assert second.ok and second.journal
        assert second.value == first.value
        assert marker.stat().st_size == 1

    def test_recovered_specs_exactly_once(self, tmp_path):
        path = tmp_path / "jobs.wal"
        spec = _spec(value=7)
        with JobJournal(path) as journal:
            journal.record_submitted(spec)
            journal.record_started(spec.digest())
            # crash here: never settled
        with JobJournal(path) as journal:
            engine = JobEngine(jobs=1, journal=journal)
            recovered = engine.recovered_specs()
            assert [s.digest() for s in recovered] == [spec.digest()]
            assert engine.recovered_specs() == []
            outcomes = engine.run(recovered)
            assert outcomes[0].ok
        with JobJournal(path) as journal:
            assert journal.inflight_digests() == []
            assert spec.digest() in journal.settled_records()

    def test_engine_without_journal_recovers_nothing(self):
        assert JobEngine(jobs=1).recovered_specs() == []


# -- SA checkpoints --------------------------------------------------------


class TestSACheckpointer:
    def _checkpointer(self, tmp_path, **kwargs):
        from repro.exchange.checkpoint import SACheckpointer

        return SACheckpointer(tmp_path / "sa.ckpt", **kwargs)

    def test_save_load_roundtrip(self, tmp_path):
        checkpointer = self._checkpointer(tmp_path, durable=False)
        checkpointer.save({"proposed": 10, "state": {"x": 1}})
        assert checkpointer.load() == {"proposed": 10, "state": {"x": 1}}

    def test_interval_validated(self, tmp_path):
        with pytest.raises(ValueError):
            self._checkpointer(tmp_path, interval=0)

    def test_corrupt_checkpoint_reads_absent_and_moves_aside(self, tmp_path):
        checkpointer = self._checkpointer(tmp_path, durable=False)
        checkpointer.save({"proposed": 1})
        raw = checkpointer.path.read_text()
        checkpointer.path.write_text("GARBAGE" + raw[7:])
        assert checkpointer.load() is None
        aside = checkpointer.path.with_name(checkpointer.path.name + ".corrupt")
        assert aside.exists()
        assert not checkpointer.path.exists()

    def test_corrupt_checkpoint_strict_raises_typed(self, tmp_path):
        checkpointer = self._checkpointer(tmp_path, durable=False, strict=True)
        checkpointer.save({"proposed": 1})
        raw = checkpointer.path.read_text()
        checkpointer.path.write_text("GARBAGE" + raw[7:])
        with pytest.raises(CheckpointIntegrityError):
            checkpointer.load()
        assert checkpointer.path.exists()  # strict never renames

    def test_foreign_run_key_reads_absent_but_survives(self, tmp_path):
        writer = self._checkpointer(tmp_path, durable=False, run_key="run-a")
        writer.save({"proposed": 5})
        reader = self._checkpointer(tmp_path, durable=False, run_key="run-b")
        assert reader.load() is None
        assert reader.path.exists()  # another run's state, not damage

    def test_clear_removes_the_file(self, tmp_path):
        checkpointer = self._checkpointer(tmp_path, durable=False)
        checkpointer.save({"proposed": 1})
        checkpointer.clear()
        assert not checkpointer.path.exists()
        checkpointer.clear()  # idempotent

    def test_crashed_anneal_resumes_bit_identically(self, tmp_path):
        # The fuzz oracle enforces this over hundreds of random cases;
        # this is the deterministic regression anchor for the suite.
        from repro.assign import DFAAssigner
        from repro.circuits import CircuitSpec, build_design
        from repro.exchange import FingerPadExchanger, SAParams
        from repro.exchange.checkpoint import SACheckpointer, SimulatedCrash

        design = build_design(
            CircuitSpec(name="ckpt-resume", finger_count=32), seed=0
        )
        baseline = assign_design(DFAAssigner(), design)
        params = SAParams(
            initial_temp=0.05, final_temp=0.01, cooling=0.8, moves_per_temp=40
        )

        def run(checkpoint):
            exchanger = FingerPadExchanger(
                design, params=params, polish_passes=2,
                checkpoint=checkpoint,
            )
            return exchanger.run(
                {side: a.copy() for side, a in baseline.items()}, seed=3
            )

        reference = run(None)
        path = tmp_path / "sa.ckpt"
        with pytest.raises(SimulatedCrash):
            run(SACheckpointer(path, interval=25, durable=False,
                               interrupt_after_saves=1))
        assert path.exists()
        resumed = run(SACheckpointer(path, interval=25, durable=False))
        assert resumed.stats.proposed == reference.stats.proposed
        assert resumed.stats.accepted == reference.stats.accepted
        assert resumed.stats.final_cost == reference.stats.final_cost
        assert resumed.stats.cost_trace == reference.stats.cost_trace
        for side in reference.after:
            assert resumed.after[side].order == reference.after[side].order
        assert not path.exists()  # completed runs leave no stale state


# -- client retry policy ---------------------------------------------------


class _FixedRng:
    def random(self):
        return 1.0  # jitter ceiling: delays become deterministic


class TestClientRetry:
    def _client(self, **kwargs):
        kwargs.setdefault("rng", _FixedRng())
        return ServeClient(port=1, **kwargs)

    def test_delay_grows_exponentially_and_caps(self):
        client = self._client(retries=5, backoff=0.1, max_backoff=0.5)
        assert client._delay(0) == pytest.approx(0.1)
        assert client._delay(1) == pytest.approx(0.2)
        assert client._delay(3) == pytest.approx(0.5)  # capped

    def test_retry_after_overrides_and_clamps(self):
        client = self._client(retries=1, max_backoff=0.5)
        assert client._delay(0, retry_after=0.25) == pytest.approx(0.25)
        assert client._delay(0, retry_after=9.0) == pytest.approx(0.5)
        assert client._delay(0, retry_after=-3.0) == 0.0

    def test_parse_retry_after_delta_seconds(self):
        assert _parse_retry_after({"retry-after": "2"}) == 2.0
        assert _parse_retry_after({"retry-after": " 2.5 "}) == 2.5
        assert _parse_retry_after({"retry-after": "-3"}) == 0.0  # clamped
        assert _parse_retry_after({}) is None

    def test_parse_retry_after_http_date(self):
        import email.utils

        future = email.utils.formatdate(time.time() + 30.0, usegmt=True)
        seconds = _parse_retry_after({"retry-after": future})
        assert seconds is not None and 25.0 <= seconds <= 31.0
        past = email.utils.formatdate(time.time() - 60.0, usegmt=True)
        assert _parse_retry_after({"retry-after": past}) == 0.0

    def test_parse_retry_after_garbage_falls_back(self):
        # Every unusable form must yield None (-> jittered backoff), not raise.
        for raw in ("soon", "", "nan", "inf", "-inf", "Wed, 99 Foo", "1;2",
                    None, object()):
            assert _parse_retry_after({"retry-after": raw}) is None

    def test_retries_503_honoring_retry_after(self, monkeypatch):
        client = self._client(retries=3, backoff=0.1)
        responses = iter([
            (503, {"error": {"code": "draining"}}, {"retry-after": "0.01"}),
            (503, {"error": {"code": "draining"}}, {}),
            (200, {"status": "done"}, {}),
        ])
        slept = []
        monkeypatch.setattr(
            ServeClient, "_request_once",
            lambda self, method, path, payload: next(responses),
        )
        monkeypatch.setattr(time, "sleep", slept.append)
        status, body = client._request("GET", "/healthz")
        assert (status, body) == (200, {"status": "done"})
        assert slept[0] == pytest.approx(0.01)   # Retry-After wins
        assert slept[1] == pytest.approx(0.2)    # computed backoff

    def test_retries_transport_errors_then_succeeds(self, monkeypatch):
        client = self._client(retries=2, backoff=0.01)
        calls = {"n": 0}

        def flaky(self, method, path, payload):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionRefusedError("daemon restarting")
            return 200, {"status": "ok"}, {}

        monkeypatch.setattr(ServeClient, "_request_once", flaky)
        monkeypatch.setattr(time, "sleep", lambda _: None)
        assert client._request("GET", "/healthz") == (200, {"status": "ok"})
        assert calls["n"] == 3

    def test_zero_retries_is_raw(self, monkeypatch):
        client = self._client()  # retries=0
        monkeypatch.setattr(
            ServeClient, "_request_once",
            lambda self, method, path, payload: (503, {"raw": True}, {}),
        )
        assert client._request("GET", "/healthz") == (503, {"raw": True})

        def refuse(self, method, path, payload):
            raise ConnectionRefusedError("nope")

        monkeypatch.setattr(ServeClient, "_request_once", refuse)
        with pytest.raises(ConnectionRefusedError):
            client._request("GET", "/healthz")


# -- daemon recovery -------------------------------------------------------


def _journal_config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(
        port=0,
        workers=1,
        cache=False,  # recovery must come from the journal alone
        journal=str(tmp_path / "jobs.wal"),
        announce=False,
        batch_window=0.005,
        drain_deadline=10.0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestDaemonRecovery:
    def test_registry_survives_restart_via_journal(self, tmp_path):
        with ServeHandle(_journal_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout=30.0)
            status, first = client.submit("jwal_echo", {"value": 5}, seed=2)
            assert status == 200 and first["status"] == "done"
            digest = first["job"]
        with ServeHandle(_journal_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout=30.0)
            status, envelope = client.status(digest)
            assert status == 200
            assert envelope["status"] == "done"
            assert envelope["value"] == first["value"]
            # Answered from the recovered registry, not recomputed.
            assert client.health()["counters"]["executed"] == 0
            status, resubmit = client.submit("jwal_echo", {"value": 5}, seed=2)
            assert status == 200 and resubmit["deduped"]
            assert client.health()["counters"]["executed"] == 0

    def test_sse_last_event_id_resumes_mid_stream(self, tmp_path):
        with ServeHandle(_journal_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout=30.0)
            status, envelope = client.submit("jwal_echo", {"value": 1}, seed=9)
            digest = envelope["job"]
            full = list(client.events(digest, timeout=10.0, with_ids=True))
            ids = [event_id for event_id, _, __ in full
                   if event_id is not None]
            assert ids == sorted(ids) and len(ids) >= 2
            assert full[-1][1] == "serve.result"  # terminal, synthetic
            assert full[-1][0] is None
            # Reconnect as a client that saw everything up to ids[0].
            resumed = list(client.events(
                digest, timeout=10.0, last_event_id=ids[0], with_ids=True
            ))
            resumed_ids = [event_id for event_id, _, __ in resumed
                           if event_id is not None]
            assert resumed_ids == ids[1:]
            assert resumed[-1][1] == "serve.result"

    def test_kill_minus_nine_reexecutes_only_inflight(self, tmp_path):
        # The full-size version of this lives in `make crash-smoke`; this
        # is the tier-1 anchor: SIGKILL a real daemon subprocess, restart
        # it on the same journal, and count re-executions.
        from repro.serve.smoke import start_daemon

        params = {
            "spec": {
                "name": "jwal-kill9",
                "finger_count": 16,
                "quadrant_count": 4,
                "rows_per_quadrant": 2,
            },
            "design_seed": 3,
            "grid": 16,
            "initial_temp": 1.0,
            "final_temp": 0.4,
            "cooling": 0.5,
            "moves_per_temp": 2,
        }
        seeds = (5, 6)
        journal_path = str(tmp_path / "jobs.wal")
        cache_dir = str(tmp_path / "cache")
        daemon_args = ["--journal", journal_path,
                       "--batch-max", "1", "--batch-window", "0"]

        process, port = start_daemon(cache_dir, extra_args=daemon_args)
        try:
            client = ServeClient(port=port, timeout=30.0, retries=3)
            digests = []
            for seed in seeds:
                status, envelope = client.submit(
                    "design_run", params, seed=seed, wait=False
                )
                assert status in (200, 202)
                digests.append(envelope["job"])
        finally:
            process.send_signal(signal.SIGKILL)
            assert process.wait(timeout=30) == -signal.SIGKILL

        with JobJournal(journal_path, compact_bytes=None) as journal:
            settled_at_kill = set(journal.settled_records())
        inflight = [d for d in digests if d not in settled_at_kill]

        process, port = start_daemon(cache_dir, extra_args=daemon_args)
        try:
            client = ServeClient(port=port, timeout=30.0, retries=3)
            deadline = time.monotonic() + 60.0
            for digest in digests:
                envelope = {}
                while time.monotonic() < deadline:
                    status, envelope = client.status(digest)
                    if envelope.get("status") in ("done", "failed"):
                        break
                    time.sleep(0.05)
                assert envelope.get("status") == "done", envelope
            executed = client.health()["counters"]["executed"]
            assert executed == len(inflight)
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 128 + signal.SIGTERM

        with JobJournal(journal_path, compact_bytes=None) as journal:
            assert set(journal.settled_records()) >= set(digests)
            assert journal.inflight_digests() == []
