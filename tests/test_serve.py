"""Tests for repro.serve: wire schema, daemon behaviour, lifecycle.

Covers the serving contract end-to-end against a real in-process daemon
(sockets, HTTP, SSE): request validation codes, the response envelope,
digest dedup (a burst of identical submits executes exactly one job),
429 backpressure when the queue is full, result persistence across
daemon restarts via the disk cache, SSE progress streaming, and the
SIGTERM drain path of both ``repro serve`` and ``repro run``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.runtime import register_job_type
from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeConfig,
    ServeHandle,
    WIRE_SCHEMA_VERSION,
    WireError,
    error_body,
    parse_request,
    validate_request,
)
from repro.serve.state import JobRecord, JobRegistry
from repro.runtime.spec import JobSpec


# -- test job types --------------------------------------------------------
# Module-level so they resolve in the daemon's dispatcher thread (and in
# pool workers, should a test raise the worker count).


@register_job_type("serve_echo")
def _serve_echo_job(params, seed):
    return {"value": params.get("value", 0), "seed": seed}


@register_job_type("serve_sleepy")
def _serve_sleepy_job(params, seed):
    time.sleep(params.get("sleep", 0.2))
    return {"slept": params.get("sleep", 0.2)}


@register_job_type("serve_boom")
def _serve_boom_job(params, seed):
    raise RuntimeError(params.get("message", "planned failure"))


def _daemon_config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(
        port=0,
        workers=1,
        cache_dir=str(tmp_path / "cache"),
        announce=False,
        batch_window=0.005,
        drain_deadline=10.0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


@pytest.fixture
def daemon(tmp_path):
    with ServeHandle(_daemon_config(tmp_path)) as handle:
        yield handle


# -- wire schema -----------------------------------------------------------


class TestWireValidation:
    def test_minimal_valid_request(self):
        assert validate_request({"kind": "serve_echo"}) == []

    def test_full_valid_request(self):
        payload = {
            "schema": WIRE_SCHEMA_VERSION,
            "kind": "serve_echo",
            "params": {"value": 3},
            "seed": 7,
            "wait": False,
            "timeout": 1.5,
        }
        assert validate_request(payload) == []

    def test_non_object_body(self):
        codes = [code for code, _ in validate_request([1, 2, 3])]
        assert codes == ["wire.not-object"]

    @pytest.mark.parametrize(
        "payload, code",
        [
            ({"kind": ""}, "wire.bad-kind"),
            ({"kind": 7}, "wire.bad-kind"),
            ({}, "wire.bad-kind"),
            ({"kind": "x", "schema": "1"}, "wire.bad-schema"),
            ({"kind": "x", "schema": True}, "wire.bad-schema"),
            ({"kind": "x", "schema": WIRE_SCHEMA_VERSION + 1}, "wire.schema-version"),
            ({"kind": "x", "params": []}, "wire.bad-params"),
            ({"kind": "x", "seed": "7"}, "wire.bad-seed"),
            ({"kind": "x", "seed": True}, "wire.bad-seed"),
            ({"kind": "x", "wait": "yes"}, "wire.bad-wait"),
            ({"kind": "x", "timeout": -1}, "wire.bad-timeout"),
            ({"kind": "x", "timeout": True}, "wire.bad-timeout"),
            ({"kind": "x", "bogus": 1}, "wire.unknown-field"),
        ],
    )
    def test_invalid_field_codes(self, payload, code):
        assert code in [c for c, _ in validate_request(payload)]

    def test_parse_request_defaults(self):
        request = parse_request({"kind": "serve_echo"})
        assert request.kind == "serve_echo"
        assert request.params == {}
        assert request.seed is None
        assert request.wait is True
        assert request.timeout is None

    def test_parse_request_raises_with_problems(self):
        with pytest.raises(WireError) as info:
            parse_request({"kind": "", "seed": "x"})
        codes = [code for code, _ in info.value.problems]
        assert "wire.bad-kind" in codes
        assert "wire.bad-seed" in codes

    def test_parse_request_builds_spec(self):
        request = parse_request(
            {"kind": "serve_echo", "params": {"value": 2}, "seed": 5}
        )
        spec = request.spec()
        assert spec.kind == "serve_echo"
        assert spec.params == {"value": 2}
        assert spec.seed == 5
        # Identical payloads must produce identical digests: that equality
        # is what the daemon's dedup path keys on.
        assert spec.digest() == parse_request(
            {"kind": "serve_echo", "params": {"value": 2}, "seed": 5}
        ).spec().digest()

    def test_error_body_shape(self):
        body = error_body("overloaded", "busy", [("wire.bad-kind", "nope")])
        assert body["schema"] == WIRE_SCHEMA_VERSION
        assert body["error"]["code"] == "overloaded"
        assert body["error"]["problems"] == [
            {"code": "wire.bad-kind", "message": "nope"}
        ]


class TestCheckWireRequest:
    def test_valid_request_passes(self):
        from repro.verify import check_wire_request

        report = check_wire_request({"kind": "serve_echo", "params": {}})
        assert report.ok

    def test_invalid_request_reports_codes(self):
        from repro.verify import check_wire_request

        report = check_wire_request({"kind": "", "seed": "x"})
        assert not report.ok
        codes = {diag.code for diag in report.errors}
        assert "wire.bad-kind" in codes
        assert "wire.bad-seed" in codes

    def test_unknown_kind_warns(self):
        from repro.verify import check_wire_request

        report = check_wire_request({"kind": "definitely-not-registered"})
        assert report.ok  # syntactically valid; the kind is a warning
        assert any(d.code == "wire.unknown-kind" for d in report.warnings)


# -- registry --------------------------------------------------------------


class TestJobRegistry:
    @staticmethod
    def _settled_record(index: int) -> JobRecord:
        spec = JobSpec("serve_echo", {"value": index}, seed=1)
        record = JobRecord(spec=spec, digest=spec.digest())
        record.status = "done"
        return record

    def test_settle_evicts_beyond_retained(self):
        registry = JobRegistry(retained=2)
        records = [self._settled_record(i) for i in range(3)]
        for record in records:
            registry.add(record)
        assert registry.settle(records[0]) == []
        assert registry.settle(records[1]) == []
        dropped = registry.settle(records[2])
        assert dropped == [records[0]]
        assert registry.get(records[0].digest) is None
        assert registry.get(records[2].digest) is records[2]

    def test_pending_counts_only_unsettled(self):
        registry = JobRegistry()
        live = self._settled_record(0)
        live.status = "queued"
        done = self._settled_record(1)
        registry.add(live)
        registry.add(done)
        assert registry.pending == 1


# -- daemon end-to-end -----------------------------------------------------


class TestDaemon:
    def test_health_and_schema(self, daemon):
        client = ServeClient(port=daemon.port)
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema"] == WIRE_SCHEMA_VERSION
        assert health["queue"]["limit"] == daemon.config.queue_limit
        assert health["cache"] is not None  # cache enabled in the fixture
        schema = client.schema()
        assert schema["wire_schema"] == WIRE_SCHEMA_VERSION
        assert "serve_echo" in schema["kinds"]
        assert "codesign" in schema["kinds"]  # built-ins load lazily

    def test_submit_roundtrip_envelope(self, daemon):
        client = ServeClient(port=daemon.port)
        status, envelope = client.submit(
            "serve_echo", {"value": 11}, seed=3
        )
        assert status == 200
        assert envelope["schema"] == WIRE_SCHEMA_VERSION
        assert envelope["status"] == "done"
        assert envelope["kind"] == "serve_echo"
        assert envelope["value"] == {"value": 11, "seed": 3}
        assert len(envelope["job"]) == 64
        assert envelope["job"][:12] in envelope["label"]
        assert envelope["cached"] is False
        assert envelope["deduped"] is False

    def test_repeat_submit_joins_settled_record(self, daemon):
        client = ServeClient(port=daemon.port)
        _, first = client.submit("serve_echo", {"value": 4}, seed=1)
        status, second = client.submit("serve_echo", {"value": 4}, seed=1)
        assert status == 200
        assert second["deduped"] is True
        assert second["value"] == first["value"]
        counters = client.health()["counters"]
        assert counters["executed"] == 1
        assert counters["deduped"] == 1

    def test_result_survives_restart_via_cache(self, tmp_path):
        config = _daemon_config(tmp_path)
        with ServeHandle(config) as handle:
            _, first = ServeClient(port=handle.port).submit(
                "serve_echo", {"value": 9}, seed=2
            )
            assert first["cached"] is False
        with ServeHandle(_daemon_config(tmp_path)) as handle:
            status, second = ServeClient(port=handle.port).submit(
                "serve_echo", {"value": 9}, seed=2
            )
        assert status == 200
        assert second["cached"] is True
        assert second["value"] == first["value"]

    def test_dedup_burst_executes_exactly_one_job(self, daemon):
        client = ServeClient(port=daemon.port, timeout=120.0)

        def submit(_):
            return client.submit("serve_sleepy", {"sleep": 0.3}, seed=5)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(submit, range(6)))
        values = {json.dumps(env["value"], sort_keys=True) for _, env in results}
        assert all(status == 200 for status, _ in results)
        assert all(env["status"] == "done" for _, env in results)
        assert len(values) == 1
        counters = client.health()["counters"]
        assert counters["executed"] == 1
        assert counters["submitted"] == 6
        assert counters["deduped"] == 5

    def test_failed_job_reports_in_envelope_not_http(self, daemon):
        client = ServeClient(port=daemon.port)
        status, envelope = client.submit(
            "serve_boom", {"message": "kaboom"}, seed=1
        )
        assert status == 200  # the request succeeded; the job failed
        assert envelope["status"] == "failed"
        assert "kaboom" in envelope["error"]
        assert "value" not in envelope
        assert client.health()["counters"]["failed"] == 1

    def test_unknown_kind_rejected(self, daemon):
        client = ServeClient(port=daemon.port)
        with pytest.raises(ServeClientError) as info:
            client.submit("no-such-kind", {})
        assert info.value.status == 400
        assert info.value.body["error"]["code"] == "unknown-kind"

    def test_invalid_request_lists_problems(self, daemon):
        client = ServeClient(port=daemon.port)
        status, body = client._request(
            "POST", "/v1/jobs", {"kind": "serve_echo", "seed": "seven"}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid-request"
        codes = {p["code"] for p in body["error"]["problems"]}
        assert "wire.bad-seed" in codes

    def test_non_json_body_rejected(self, daemon):
        connection = http.client.HTTPConnection("127.0.0.1", daemon.port)
        try:
            connection.request(
                "POST", "/v1/jobs", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert body["error"]["code"] == "bad-json"

    def test_unknown_job_and_endpoint_404(self, daemon):
        client = ServeClient(port=daemon.port)
        status, body = client.status("ab" * 32)
        assert status == 404
        assert body["error"]["code"] == "unknown-job"
        status, body = client._request("GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "unknown-endpoint"

    def test_nowait_accepts_then_polls_to_done(self, daemon):
        client = ServeClient(port=daemon.port)
        status, envelope = client.submit(
            "serve_sleepy", {"sleep": 0.3}, seed=1, wait=False
        )
        assert status == 202
        assert envelope["status"] in ("queued", "running")
        digest = envelope["job"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, envelope = client.status(digest)
            if status == 200:
                break
            assert status == 202
            time.sleep(0.05)
        assert status == 200
        assert envelope["status"] == "done"
        assert envelope["value"] == {"slept": 0.3}

    def test_wait_timeout_returns_202_job_keeps_running(self, daemon):
        client = ServeClient(port=daemon.port)
        status, envelope = client.submit(
            "serve_sleepy", {"sleep": 0.5}, seed=2, timeout=0.05
        )
        assert status == 202
        assert envelope["status"] in ("queued", "running")
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, envelope = client.status(envelope["job"])
            if status == 200:
                break
            time.sleep(0.05)
        assert envelope["status"] == "done"

    def test_queue_full_rejects_429(self, tmp_path):
        config = _daemon_config(tmp_path, queue_limit=1, cache=False)
        with ServeHandle(config) as handle:
            client = ServeClient(port=handle.port)
            status, _ = client.submit(
                "serve_sleepy", {"sleep": 1.0}, seed=1, wait=False
            )
            assert status == 202
            status, body = client.submit(
                "serve_sleepy", {"sleep": 1.0}, seed=2, wait=False,
                raise_on_error=False,
            )
            assert status == 429
            assert body["error"]["code"] == "overloaded"
            # A duplicate of the pending job still joins it — dedup is not
            # subject to the queue limit.
            status, envelope = client.submit(
                "serve_sleepy", {"sleep": 1.0}, seed=1, wait=False
            )
            assert status == 202
            assert envelope["deduped"] is True
            assert client.health()["counters"]["rejected"] == 1

    def test_sse_stream_replays_and_terminates(self, daemon):
        client = ServeClient(port=daemon.port, timeout=60.0)
        status, envelope = client.submit(
            "serve_sleepy", {"sleep": 0.4}, seed=3, wait=False
        )
        assert status == 202
        events = list(client.events(envelope["job"]))
        assert events, "SSE stream yielded nothing"
        names = [name for name, _ in events]
        assert names[-1] == "serve.result"
        terminal = events[-1][1]
        assert terminal["status"] == "done"
        assert terminal["value"] == {"slept": 0.4}
        # The stream carries the job's telemetry, attributed by label.
        assert "job.done" in names

    def test_sse_unknown_job_404(self, daemon):
        client = ServeClient(port=daemon.port)
        with pytest.raises(ServeClientError) as info:
            list(client.events("cd" * 32))
        assert info.value.status == 404

    def test_sse_stream_terminates_with_warm_pool(self, tmp_path):
        # Regression: with workers > 1 the engine's warm pool forks while
        # the SSE connection is open, and the forked workers inherit a
        # duplicate of the connection's fd.  Closing the transport alone
        # then never sends FIN (the kernel refcount stays > 0 while the
        # pool lives) and a client waiting for EOF hangs forever.  The
        # daemon must half-close the socket itself so the stream ends.
        with ServeHandle(_daemon_config(tmp_path, workers=2)) as handle:
            client = ServeClient(port=handle.port, timeout=15.0)
            status, envelope = client.submit(
                "serve_sleepy", {"sleep": 0.4}, seed=3, wait=False
            )
            assert status == 202
            events = list(client.events(envelope["job"]))
            names = [name for name, _ in events]
            assert names[-1] == "serve.result"
            assert events[-1][1]["status"] == "done"


# -- graceful shutdown -----------------------------------------------------


REPO_ROOT = Path(__file__).resolve().parent.parent


def _env_with_src():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class TestGracefulShutdown:
    def test_drain_on_signal_raises_and_restores(self):
        from repro.cli import _DrainSignal, _drain_on_signal

        previous = signal.getsignal(signal.SIGTERM)
        with pytest.raises(_DrainSignal) as info:
            with _drain_on_signal():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(1.0)  # the handler interrupts the sleep
        assert info.value.signum == signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_swallowed_drain_is_raised_at_block_end(self):
        from repro.cli import _DrainSignal, _drain_on_signal

        with pytest.raises(_DrainSignal) as info:
            with _drain_on_signal():
                handler = signal.getsignal(signal.SIGTERM)
                try:
                    handler(signal.SIGTERM, None)
                except _DrainSignal:
                    pass  # dropped, as Python drops it inside an at-fork hook
        assert info.value.signum == signal.SIGTERM

    def test_serve_sigterm_exits_143(self, tmp_path):
        from repro.serve.smoke import start_daemon

        process, port = start_daemon(str(tmp_path / "cache"), workers=1)
        try:
            assert ServeClient(port=port).health()["status"] == "ok"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 128 + signal.SIGTERM
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_run_sigterm_exits_143(self, tmp_path):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "smoke",
             "--jobs", "2", "--no-cache"],
            cwd=str(tmp_path), env=_env_with_src(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # The "running N job(s)..." banner prints after the drain
            # handler is installed, so a signal sent as soon as it is read
            # always drains, however soon the run would have finished.
            banner = process.stderr.readline()
            assert "running" in banner, banner
            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=60)
            stderr = banner + process.stderr.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        assert returncode == 128 + signal.SIGTERM, stderr
        assert "interrupted by signal" in stderr
