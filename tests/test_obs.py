"""The observability layer (:mod:`repro.obs`) end to end.

The heart of the suite: a real ``--jobs 4`` engine run whose trace must
reconstruct into a single rooted span tree — every worker-side event
parented under its job span, timestamps rebased onto the parent timeline,
no orphans — and validate against the versioned event schema.  Around it:
the JSONL sink's buffering/lifecycle contract, the Chrome trace export,
the profiling hooks, bench records, and the ``repro stats`` /
``repro check-trace`` CLI surfaces (including their golden output on the
committed ``results/smoke_trace.jsonl``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import (
    MetricsRegistry,
    build_span_tree,
    check_spans,
    load_trace,
    make_profiler,
    merge_histograms,
    open_span,
    span,
    stats_summary,
    to_chrome,
    validate_trace,
    write_chrome,
)
from repro.obs.bench import (
    compare_bench_records,
    load_bench_record,
    make_bench_record,
    render_compare,
    write_bench_record,
)
from repro.obs.profile import merge_profile_events, profile_to_event
from repro.runtime import JobEngine, JobSpec, JsonlSink, Telemetry, using_telemetry

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE_TRACE = REPO_ROOT / "results" / "smoke_trace.jsonl"


@pytest.fixture(scope="module")
def smoke_trace(tmp_path_factory):
    """The ``make bench-smoke`` trace artifact, regenerated when absent.

    The committed workflow writes it via ``repro run smoke``; on a fresh
    checkout (the file is gitignored) the same command produces it in a
    temp dir so the golden assertions hold either way.
    """
    if SMOKE_TRACE.exists():
        return SMOKE_TRACE
    path = tmp_path_factory.mktemp("obs") / "smoke_trace.jsonl"
    assert main([
        "run", "smoke", "--jobs", "2", "--no-cache", "--trace", str(path)
    ]) == 0
    return path


def _smoke_spec(seed: int, tiers: int = 1) -> JobSpec:
    return JobSpec(
        "codesign",
        {"circuit": 1, "tiers": tiers, "grid": 16, "moves_per_temp": 20,
         "cooling": 0.8},
        seed=seed,
    )


@pytest.fixture(scope="module")
def parallel_trace():
    """One real --jobs 4 run: four codesign jobs through the process pool."""
    telemetry = Telemetry()
    telemetry.emit("trace.meta", schema=1, tool="repro", command="test")
    engine = JobEngine(jobs=4, telemetry=telemetry)
    outcomes = engine.run([_smoke_spec(seed) for seed in range(4)])
    assert all(outcome.ok for outcome in outcomes)
    return telemetry.events


class TestSpanTree:
    def test_single_rooted_tree_at_jobs_4(self, parallel_trace):
        tree = build_span_tree(parallel_trace)
        assert len(tree.roots) == 1
        assert tree.roots[0].name == "engine"
        assert not tree.orphans
        assert not tree.unmatched_ends
        assert not tree.duplicate_ids
        assert not tree.unclosed
        report = check_spans(tree)
        assert report.ok
        assert report.has("span.tree")

    def test_every_job_span_under_engine(self, parallel_trace):
        tree = build_span_tree(parallel_trace)
        jobs = [node for node in tree.walk() if node.name == "job"]
        assert len(jobs) == 4
        for node in jobs:
            assert node.parent is tree.roots[0]
            assert node.closed
            # worker-side spans (flow, annealer, kernel) hang off the job
            names = {child.name for child in node.walk()}
            assert "flow.run" in names
            assert "sa.anneal" in names

    def test_worker_events_attributed_to_job_subtree(self, parallel_trace):
        tree = build_span_tree(parallel_trace)
        # every span-stamped, non-span event must land inside a job subtree
        job_subtree_ids = {
            node.span_id
            for job in tree.walk() if job.name == "job"
            for node in job.walk()
        }
        worker_events = [
            e for e in parallel_trace
            if e.get("event", "").startswith(("sa.", "kernel.", "cache.put"))
        ]
        assert worker_events
        for event in worker_events:
            assert event.get("span") in job_subtree_ids, event

    def test_worker_timestamps_rebased(self, parallel_trace):
        # rebased worker events must fall inside the engine span's window
        tree = build_span_tree(parallel_trace)
        root = tree.roots[0]
        for event in parallel_trace:
            if event.get("event") == "sa.begin":
                assert root.begin_t <= event["t"] <= root.end_t + 1e-6

    def test_schema_valid(self, parallel_trace):
        report = validate_trace(parallel_trace)
        assert report.ok, report.render()
        assert not report.codes("warning")


class TestExchangeSpanCoverage:
    def test_flow_exchange_untracked_under_5pct(self):
        """Every part of the exchange finish runs inside a named child span."""
        from repro import api
        from repro.circuits import CircuitSpec, build_design

        design = build_design(CircuitSpec(name="cover", finger_count=1792), seed=0)
        telemetry = Telemetry()
        api.run(design, seed=0, telemetry=telemetry)
        tree = build_span_tree(telemetry.events)
        (exchange,) = [node for node in tree.walk() if node.name == "flow.exchange"]
        children = {child.name for child in exchange.children}
        assert {"kernel.build", "sa.anneal", "kernel.polish", "exchange.report"} <= children
        assert exchange.self_seconds < 0.05 * exchange.seconds


class TestMeasureSpanCoverage:
    @pytest.fixture(scope="class")
    def trees(self):
        """Span trees of a 1,792-finger ``api.run`` at psi 1 and psi 4.

        Each design runs twice in this process: first from an empty
        factorization memo, then again with its grids already factored,
        where ``flow.measure`` is a few milliseconds and every span's own
        bookkeeping weighs the most.
        """
        from repro import api
        from repro.circuits import CircuitSpec, build_design

        trees = {}
        for tiers in (1, 4):
            design = build_design(
                CircuitSpec(name="cover", finger_count=1792, tier_count=tiers),
                seed=0,
            )
            for memo in ("cold", "warm"):
                telemetry = Telemetry()
                api.run(design, seed=0, telemetry=telemetry)
                trees[tiers, memo] = build_span_tree(telemetry.events)
        return trees

    def test_flow_measure_untracked_under_5pct(self, trees):
        """Both measurements of a run spend their time in named stages.

        Stacking ICs (psi > 1) add the omega count as ``measure.omega``.
        """
        for (tiers, __), tree in trees.items():
            (measure,) = [node for node in tree.walk() if node.name == "flow.measure"]
            names = [child.name for child in measure.children]
            stages = ["measure.density", "measure.wirelength", "measure.ir"]
            if tiers > 1:
                stages.append("measure.omega")
            assert sorted(names) == sorted(stages * 2)
            assert measure.self_seconds < 0.05 * measure.seconds

    def test_api_run_root_untracked_under_5pct(self, trees):
        """Outside the named stages, the root and the flow do next to nothing."""
        for tree in trees.values():
            (root,) = tree.roots
            assert root.name == "api.run"
            (flow,) = root.children
            assert {child.name for child in flow.children} == {
                "flow.assign", "flow.exchange", "flow.measure"
            }
            assert root.self_seconds + flow.self_seconds < 0.05 * root.seconds


class TestSpanPrimitives:
    def test_span_nests_and_stamps(self):
        telemetry = Telemetry()
        with span("outer", telemetry):
            with span("inner", telemetry):
                telemetry.emit("sa.begin", initial_cost=0.0, initial_temp=1.0,
                               steps=1, moves_per_temp=1)
        tree = build_span_tree(telemetry.events)
        assert [node.name for node in tree.walk()] == ["outer", "inner"]
        inner = tree.roots[0].children[0]
        assert inner.events[0]["event"] == "sa.begin"

    def test_bookkeeping_is_charged_to_the_span(self):
        """Minting ids and emitting both events count as a span's own time.

        A parent of many empty children is left with little self time;
        were the children's bookkeeping charged to the parent, its self
        time would be several times the children's total.
        """
        telemetry = Telemetry()
        with span("parent", telemetry):
            for __ in range(500):
                with span("child", telemetry):
                    pass
        (parent,) = build_span_tree(telemetry.events).roots
        assert len(parent.children) == 500
        assert parent.self_seconds < sum(child.seconds for child in parent.children)

    def test_null_path_mints_nothing(self):
        from repro.runtime.telemetry import get_telemetry

        disabled = get_telemetry()  # ambient no-op singleton
        assert not disabled.enabled
        with span("anything", disabled) as handle:
            assert handle is None
        assert open_span("anything", disabled) is None

    def test_cross_process_parenting_via_handle(self):
        parent = Telemetry()
        handle = open_span("job", parent, job="j1")
        # simulate the worker: a fresh telemetry rooted at the handle's id
        from repro.obs.spans import attached_to

        child = Telemetry()
        with using_telemetry(child), attached_to(handle.span_id):
            with span("flow.run", child):
                pass
        handle.close(status="ok")
        parent.ingest(child.events)
        tree = build_span_tree(parent.events)
        assert len(tree.roots) == 1
        flow = tree.roots[0].children[0]
        assert flow.name == "flow.run"


class TestJsonlSink:
    def test_buffered_until_threshold(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, flush_every=64)
        for i in range(10):
            sink({"event": "x", "t": float(i)})
        # below the threshold nothing has hit the disk yet
        assert not path.exists() or path.read_text() == ""
        sink.flush()
        assert len(path.read_text().splitlines()) == 10
        sink.close()

    def test_close_flushes_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path, flush_every=1000) as sink:
            sink({"event": "x", "t": 0.0})
        assert len(path.read_text().splitlines()) == 1
        with pytest.raises(ValueError):
            sink({"event": "y", "t": 1.0})

    def test_exception_path_still_writes_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlSink(path) as sink:
                sink({"event": "x", "t": 0.0})
                raise RuntimeError("mid-trace failure")
        assert len(path.read_text().splitlines()) == 1

    def test_new_sink_truncates_previous_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink({"event": "old", "t": 0.0})
        with JsonlSink(path) as sink:
            sink({"event": "new", "t": 0.0})
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "new"

    def test_cli_failure_closes_trace(self, tmp_path, capsys):
        # a workload whose jobs fail must still flush+close the trace file
        trace = tmp_path / "fail.jsonl"
        code = main([
            "run", "smoke", "--no-cache", "--seed", "0", "--jobs", "2",
            "--trace", str(trace), "--timeout", "0.000001",
        ])
        capsys.readouterr()
        assert code == 1
        events, problems = load_trace(trace)
        assert not problems
        assert any(e["event"] == "trace.meta" for e in events)


class TestMetrics:
    def test_histograms_flow_into_trace(self, parallel_trace):
        metrics_events = [e for e in parallel_trace if e["event"] == "metrics"]
        assert metrics_events
        merged = merge_histograms(
            [
                e["metrics"]["sa.delta"]
                for e in metrics_events
                if "sa.delta" in e.get("metrics", {})
            ]
        )
        assert merged["count"] > 0
        assert len(merged["counts"]) == len(merged["bounds"]) + 1

    def test_registry_flush_is_versioned_and_dirty_gated(self):
        telemetry = Telemetry()
        registry = MetricsRegistry(telemetry)
        registry.counter("cache.hits").inc()
        registry.flush()
        registry.flush()  # clean: no second event
        events = telemetry.events_named("metrics")
        assert len(events) == 1
        assert events[0]["version"] == 1
        assert events[0]["metrics"]["cache.hits"]["value"] == 1


class TestChromeExport:
    def test_export_shape(self, parallel_trace):
        doc = to_chrome(parallel_trace)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"engine", "job", "sa.anneal"} <= names
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0
        assert any(e["ph"] == "M" for e in doc["traceEvents"])
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters, "metrics events should export as counter samples"

    def test_write_chrome(self, parallel_trace, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome(parallel_trace, out)
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]


class TestProfilers:
    @staticmethod
    def _busy(seconds: float = 0.05) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            sum(i * i for i in range(200))

    @pytest.mark.parametrize("mode", ["cprofile", "sample"])
    def test_modes_produce_top_functions(self, mode):
        profiler = make_profiler(mode)
        profiler.start()
        self._busy()
        profiler.stop()
        top = profiler.top(5)
        assert top and all("function" in row for row in top)
        event = profile_to_event(profiler, seconds=0.05)
        assert event["mode"] == mode and event["top"]

    def test_null_and_unknown_modes(self):
        assert make_profiler(None) is None
        with pytest.raises(ValueError):
            make_profiler("flamegraph")

    def test_merge_profile_events(self):
        a = {"mode": "sample", "top": [{"function": "f", "samples": 3}]}
        b = {"mode": "sample", "top": [{"function": "f", "samples": 2}]}
        merged = merge_profile_events([a, b], n=5)
        assert merged[0]["samples"] == 5

    def test_engine_profile_hook(self):
        telemetry = Telemetry()
        engine = JobEngine(telemetry=telemetry, profile="cprofile")
        outcomes = engine.run([_smoke_spec(0)])
        assert outcomes[0].ok
        profiles = telemetry.events_named("profile")
        assert profiles and profiles[0]["mode"] == "cprofile"
        assert profiles[0]["top"]

    def test_engine_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            JobEngine(profile="flamegraph")


class TestStatsGolden:
    """``repro stats`` on the committed smoke trace (regenerated by
    ``make bench-smoke``; these assertions are regeneration-stable)."""

    def test_smoke_trace_is_valid(self, smoke_trace):
        events, problems = load_trace(smoke_trace)
        assert not problems
        report = validate_trace(events)
        assert report.ok, report.render()
        assert check_spans(events, subject="smoke").ok

    def test_summary_structure(self, smoke_trace):
        events, __ = load_trace(smoke_trace)
        summary = stats_summary(events)
        assert summary["meta"]["workload"] == "smoke"
        assert summary["spans"]["roots"] == 1
        assert summary["spans"]["orphans"] == 0
        span_names = {row["name"] for row in summary["spans"]["by_name"]}
        assert {"engine", "job", "flow.run", "sa.anneal"} <= span_names
        assert summary["jobs"]["done"] == 2
        assert summary["jobs"]["failed"] == 0
        assert summary["sa"]["runs"] >= 2
        assert 0 < summary["sa"]["acceptance_ratio"] < 1

    def test_cli_stats_text_and_json(self, smoke_trace, capsys):
        assert main(["stats", str(smoke_trace)]) == 0
        out = capsys.readouterr().out
        assert "top spans by self-time" in out
        assert "phase breakdown" in out
        assert "acceptance curve" in out
        assert main(["stats", str(smoke_trace), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"]["roots"] == 1


class TestCliSurfaces:
    def test_check_trace_ok(self, smoke_trace, capsys):
        assert main(["check-trace", str(smoke_trace)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_check_trace_rejects_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "span.begin", "t": 0.0}\nnot json\n')
        assert main(["check-trace", str(bad)]) == 1
        capsys.readouterr()

    def test_stats_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/trace.jsonl"]) == 2
        capsys.readouterr()

    def test_stats_chrome_export(self, smoke_trace, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main(["stats", str(smoke_trace), "--chrome", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["traceEvents"]

    def test_run_profile_flag(self, tmp_path, capsys):
        trace = tmp_path / "prof.jsonl"
        code = main([
            "run", "smoke", "--no-cache", "--trace", str(trace),
            "--profile", "cprofile",
        ])
        capsys.readouterr()
        assert code == 0
        events, __ = load_trace(trace)
        assert any(e["event"] == "profile" for e in events)
        meta = next(e for e in events if e["event"] == "trace.meta")
        assert meta["profile"] == "cprofile"


class TestBenchRecords:
    def test_roundtrip_and_compare(self, tmp_path):
        old = make_bench_record("kernel", {"us": 10.0, "gone": 1.0}, seed=0)
        write_bench_record(tmp_path / "old.json", "kernel", {"us": 10.0}, seed=0)
        loaded = load_bench_record(tmp_path / "old.json")
        assert loaded["metrics"]["us"] == 10.0
        new = make_bench_record("kernel", {"us": 12.0, "fresh": 2.0}, seed=0)
        diff = compare_bench_records(old, new)
        rows = {row["metric"]: row for row in diff["rows"]}
        assert rows["us"]["rel_change"] == pytest.approx(0.2)
        assert rows["gone"]["new"] is None
        assert rows["fresh"]["old"] is None
        assert "us" in render_compare(diff)

    def test_rejects_non_numeric_metrics(self):
        with pytest.raises(ValueError):
            make_bench_record("bad", {"label": "oops"})

    def test_cli_compare(self, tmp_path, capsys):
        write_bench_record(tmp_path / "a.json", "kernel", {"us": 10.0})
        write_bench_record(tmp_path / "b.json", "kernel", {"us": 11.0})
        code = main([
            "stats", "--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "+10.0%" in out


class TestAnnealerTelemetry:
    def test_delta_histogram_recorded_when_enabled(self):
        from repro.exchange import SimulatedAnnealer

        telemetry = Telemetry()
        state = {"x": 0.0}
        with using_telemetry(telemetry):
            SimulatedAnnealer().optimize(
                propose=lambda rng: rng.uniform(-1, 1),
                apply=lambda m: state.__setitem__("x", state["x"] + m),
                undo=lambda m: state.__setitem__("x", state["x"] - m),
                cost=lambda: state["x"] ** 2,
                seed=1,
            )
            telemetry.metrics.flush()
        metrics = telemetry.events_named("metrics")
        assert metrics
        histogram = metrics[-1]["metrics"]["sa.delta"]
        assert histogram["count"] > 0
        ends = telemetry.events_named("sa.end")
        assert ends and ends[0]["moves_per_s"] > 0
