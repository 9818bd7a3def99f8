"""The live telemetry plane: :mod:`repro.obs.live` and its serve surface.

Two layers under test: the :class:`LiveRegistry` aggregate itself
(direct instruments, the JSON :meth:`~LiveRegistry.snapshot`, and the
delta-folding ingest of cumulative ``metrics`` snapshots), and the
daemon's ``/v1/stats`` endpoint against a real socket.  The JSONL sink's
configurable flush cadence rides along at the end.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.obs.live import (
    LIVE_SCHEMA,
    REQUEST_SECONDS_BUCKETS,
    LiveRegistry,
    metric_name,
)
from repro.runtime import JsonlSink, register_job_type
from repro.serve import ServeClient, ServeConfig, ServeHandle
from repro.serve.daemon import _endpoint


# -- names, labels, values --------------------------------------------------


def test_metric_name_sanitizes_and_prefixes():
    assert metric_name("sa.delta") == "repro_sa_delta"
    assert metric_name("jobs-done") == "repro_jobs_done"
    assert metric_name("repro_serve_requests_total") == "repro_serve_requests_total"


def test_special_label_values_round_trip_through_snapshot():
    registry = LiveRegistry()
    registry.counter("evil", path='with "quotes"').inc()
    registry.counter("evil", path="back\\slash").inc(2)
    registry.counter("evil", path="new\nline").inc(3)
    series = registry.snapshot()["repro_evil"]["series"]
    values = {row["labels"]["path"]: row["value"] for row in series}
    assert values == {
        'with "quotes"': 1.0, "back\\slash": 2.0, "new\nline": 3.0,
    }
    # The snapshot is the /v1/stats payload: it must survive JSON as-is.
    assert json.loads(json.dumps(series)) == series


# -- the JSON snapshot ------------------------------------------------------


def test_unset_gauge_snapshots_as_none():
    registry = LiveRegistry()
    registry.gauge("maybe")
    registry.gauge("surely").set(4.5)
    snapshot = registry.snapshot()
    assert snapshot["repro_maybe"]["series"] == [
        {"kind": "gauge", "value": None, "labels": {}}
    ]
    assert snapshot["repro_surely"]["series"][0]["value"] == 4.5


def test_histogram_snapshot_buckets_sum_to_count():
    registry = LiveRegistry()
    hist = registry.histogram("lat", (0.1, 1.0, 10.0), route="a")
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.record(value)
    family = registry.snapshot()["repro_lat"]
    assert family["kind"] == "histogram"
    (series,) = family["series"]
    assert series["labels"] == {"route": "a"}
    assert series["bounds"] == [0.1, 1.0, 10.0]
    assert series["counts"] == [1, 2, 1, 1]  # per bucket, overflow last
    assert sum(series["counts"]) == series["count"] == 5
    assert series["sum"] == pytest.approx(56.05)


def test_kind_mismatch_is_rejected():
    registry = LiveRegistry()
    registry.counter("thing").inc()
    with pytest.raises(ValueError):
        registry.gauge("thing")


# -- ingest: delta folding of cumulative snapshots --------------------------


def _metrics_event(job, **snapshots):
    return {"event": "metrics", "job": job, "metrics": snapshots}


def test_ingest_folds_counter_deltas_not_totals():
    registry = LiveRegistry()
    event1 = _metrics_event(
        "codesign[abc123]", hits={"kind": "counter", "value": 2}
    )
    event2 = _metrics_event(
        "codesign[abc123]", hits={"kind": "counter", "value": 5}
    )
    assert registry.ingest(event1) and registry.ingest(event2)
    child = registry.counter("hits", kind="codesign")
    assert child.value == 5.0  # 2 + (5-2), not 2+5
    assert registry.ingested_events == 2


def test_ingest_counter_reset_folds_the_whole_snapshot():
    registry = LiveRegistry()
    registry.ingest(
        _metrics_event("job[d1]", hits={"kind": "counter", "value": 5})
    )
    # The label re-ran with a fresh registry: value went backwards.
    registry.ingest(
        _metrics_event("job[d1]", hits={"kind": "counter", "value": 1})
    )
    assert registry.counter("hits", kind="job").value == 6.0


def test_ingest_histogram_delta_and_mixed_reset_fallback():
    registry = LiveRegistry()
    bounds = [1.0, 2.0]
    registry.ingest(_metrics_event(None, h={
        "kind": "histogram", "bounds": bounds,
        "counts": [1, 0, 0], "count": 1, "sum": 0.5,
    }))
    registry.ingest(_metrics_event(None, h={
        "kind": "histogram", "bounds": bounds,
        "counts": [2, 1, 0], "count": 3, "sum": 2.5,
    }))
    child = registry.histogram("h", bounds)
    assert child.count == 3 and child.counts == [2, 1, 0]
    # Mixed reset: count grew but one bucket shrank -> fold full snapshot.
    registry.ingest(_metrics_event(None, h={
        "kind": "histogram", "bounds": bounds,
        "counts": [1, 3, 0], "count": 4, "sum": 4.0,
    }))
    assert child.count == 7 and child.counts == [3, 4, 0]


def test_ingest_skips_malformed_snapshots_without_raising():
    registry = LiveRegistry()
    assert registry.ingest(_metrics_event(
        None,
        broken={"kind": "histogram", "bounds": "nope"},
        fine={"kind": "counter", "value": 1},
    ))
    assert registry.counter("fine").value == 1.0
    assert not registry.ingest({"event": "sa.step"})
    assert not registry.ingest({"event": "metrics", "metrics": "not-a-dict"})


@pytest.mark.parametrize("counts", [[1, 2, 3], [1]], ids=["long", "short"])
def test_ingest_skips_histograms_with_the_wrong_bucket_count(counts):
    registry = LiveRegistry()
    assert registry.ingest(_metrics_event(
        None,
        h={"kind": "histogram", "bounds": [1.0], "counts": counts,
           "count": 5, "sum": 1.0},
        fine={"kind": "counter", "value": 1},
    ))
    assert registry.counter("fine").value == 1.0
    # Nothing of the bad snapshot folds: no half-updated buckets, and no
    # count that disagrees with them.
    child = registry.histogram("h", [1.0])
    assert child.counts == [0, 0] and child.count == 0
    # It was not remembered either, so the next good snapshot folds whole.
    registry.ingest(_metrics_event(None, h={
        "kind": "histogram", "bounds": [1.0], "counts": [2, 1],
        "count": 3, "sum": 2.5,
    }))
    assert child.counts == [2, 1] and child.count == 3


def test_ingest_gauge_is_last_write_wins():
    registry = LiveRegistry()
    registry.ingest(_metrics_event(None, g={"kind": "gauge", "value": 3}))
    registry.ingest(_metrics_event(None, g={"kind": "gauge", "value": 1}))
    assert registry.gauge("g").value == 1.0


def test_ingest_source_eviction_is_bounded():
    registry = LiveRegistry(max_sources=2)
    for i in range(10):
        registry.ingest(_metrics_event(
            f"job[{i}]", hits={"kind": "counter", "value": 1}
        ))
    assert len(registry._sources) <= 2
    # Every snapshot folded (each source seen once): total is 10.
    assert registry.counter("hits", kind="job").value == 10.0


def test_ingested_series_carry_the_job_kind_label():
    registry = LiveRegistry()
    registry.ingest(_metrics_event("codesign[x]", **{
        "sa.delta": {
            "kind": "histogram", "bounds": [0.1, 1.0],
            "counts": [3, 2, 1], "count": 6, "sum": 2.0,
        },
        "cache.hits": {"kind": "counter", "value": 4},
    }))
    snapshot = registry.snapshot()
    (delta,) = snapshot["repro_sa_delta"]["series"]
    assert delta["labels"] == {"kind": "codesign"}
    assert delta["counts"] == [3, 2, 1] and delta["count"] == 6
    (hits,) = snapshot["repro_cache_hits"]["series"]
    assert hits["labels"] == {"kind": "codesign"} and hits["value"] == 4.0


# -- the daemon /v1/stats surface-------------------------------------------


@register_job_type("live_echo")
def _live_echo_job(params, seed):
    return {"value": params.get("value", 0), "seed": seed}


@pytest.fixture
def daemon(tmp_path):
    config = ServeConfig(
        port=0, workers=1, cache_dir=str(tmp_path / "cache"),
        announce=False, drain_deadline=10.0,
    )
    with ServeHandle(config) as handle:
        yield handle


def test_endpoint_normalization_bounds_cardinality():
    assert _endpoint("/v1/jobs") == "/v1/jobs"
    assert _endpoint("/metrics") == "other"
    assert _endpoint("/v1/jobs/0123abc") == "/v1/jobs/:digest"
    assert _endpoint("/v1/jobs/0123abc/events") == "/v1/jobs/:digest/events"
    assert _endpoint("/who/knows") == "other"


def test_daemon_serves_no_metrics_endpoint(daemon):
    client = ServeClient(port=daemon.port, timeout=60.0)
    client.submit("live_echo", {"value": 1}, seed=1)
    status, body = client._request("GET", "/metrics")
    assert status == 404
    assert body["error"]["code"] == "unknown-endpoint"


def test_daemon_health_carries_running_jobs_and_sse_subscribers(daemon):
    client = ServeClient(port=daemon.port, timeout=60.0)
    client.submit("live_echo", {"value": 1}, seed=1)
    client.submit("live_echo", {"value": 1}, seed=1)  # dedup
    health = client.health()
    assert health["queue"] == {
        "pending": 0, "limit": daemon.config.queue_limit, "running": 0,
    }
    assert health["sse_subscribers"] == 0
    assert health["counters"]["executed"] == 1
    assert health["counters"]["deduped"] == 1


def test_daemon_stats_endpoint_is_json_with_live_families(daemon):
    client = ServeClient(port=daemon.port, timeout=60.0)
    client.submit("live_echo", {"value": 2}, seed=2)
    stats = client.stats()
    assert stats["live_schema"] == LIVE_SCHEMA
    assert stats["health"]["status"] == "ok"
    assert stats["health"]["queue"]["running"] == 0
    families = stats["metrics"]
    assert "repro_serve_request_seconds" in families
    family = families["repro_serve_request_seconds"]
    assert family["kind"] == "histogram"
    series = family["series"][0]
    assert series["count"] >= 1
    assert len(series["counts"]) == len(REQUEST_SECONDS_BUCKETS) + 1
    assert sum(series["counts"]) == series["count"]
    # The serve counters live only in `health`, not mirrored as families.
    assert [name for name in families if name.startswith("repro_serve_")] \
        == ["repro_serve_request_seconds"]


def test_daemon_request_histogram_separates_endpoints(daemon):
    client = ServeClient(port=daemon.port, timeout=60.0)
    client.submit("live_echo", {"value": 3}, seed=3)
    client.health()
    family = client.stats()["metrics"]["repro_serve_request_seconds"]
    endpoints = {series["labels"]["endpoint"] for series in family["series"]}
    assert "/v1/jobs" in endpoints
    assert "/healthz" in endpoints


# -- JSONL sink flush cadence (same-PR satellite) ---------------------------


def _lines(path):
    if not path.exists():
        return []
    return [l for l in path.read_text().splitlines() if l]


def test_jsonl_sink_flush_every_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_FLUSH_EVERY", "2")
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path, flush_seconds=0.0)
    assert sink.flush_every == 2
    sink({"event": "one"})
    assert _lines(path) == []
    sink({"event": "two"})
    assert len(_lines(path)) == 2
    sink.close()


def test_jsonl_sink_flush_every_env_garbage_falls_back(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_FLUSH_EVERY", "not-a-number")
    sink = JsonlSink(tmp_path / "t.jsonl")
    assert sink.flush_every == 64
    sink.close()


def test_jsonl_sink_deadline_flush(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path, flush_every=1000, flush_seconds=0.05)
    sink({"event": "one"})
    assert _lines(path) == []
    time.sleep(0.06)
    # The deadline is checked on event arrival, not by a timer thread.
    sink({"event": "two"})
    assert len(_lines(path)) == 2
    sink.close()
    for line in _lines(path):
        json.loads(line)
