"""The perf-regression ledger and the SA convergence-curve recorder.

The ledger half runs ``repro bench run``/``compare`` against synthetic
bench modules in a temp directory — registration discovery, history
accumulation with git rev + host fingerprint, absolute and relative
gating (including the canonical "synthetic 25% slowdown must fail a 20%
gate" check), and the N-way sparkline trajectory table.  The curves half
drives :class:`CurveRecorder` through its stride-doubling budget and a
real telemetry-enabled anneal, down to the SVG/JSON artifacts that
``repro stats --curves`` writes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.exchange import SAParams, SimulatedAnnealer
from repro.obs.curves import (
    CURVE_POINT_BUDGET,
    COST,
    CurveRecorder,
    curve_to_json,
    extract_curves,
    render_curve_svg,
    write_curves,
)
from repro.obs.ledger import (
    compare_ledger,
    history_table,
    host_fingerprint,
    latest_by_name,
    load_history,
    registered_benches,
    run_ledger,
    sparkline,
)
from repro.runtime import Telemetry, using_telemetry


# -- fixtures: a synthetic bench directory ----------------------------------

BENCH_TEMPLATE = '''
LEDGER_GATED = {{"elapsed_ms": "lower", "quality": "higher"}}
LEDGER_SEED = 7


def ledger_metrics():
    return {{"elapsed_ms": {elapsed}, "quality": {quality}}}
'''


@pytest.fixture
def bench_dir(tmp_path):
    benches = tmp_path / "benchmarks"
    benches.mkdir()
    (benches / "bench_toy.py").write_text(
        BENCH_TEMPLATE.format(elapsed=100.0, quality=0.9)
    )
    # A module without ledger_metrics must be ignored, not an error.
    (benches / "bench_txt_only.py").write_text("X = 1\n")
    # A module that fails to import must be skipped, not fatal.
    (benches / "bench_broken.py").write_text("import not_a_real_module\n")
    return benches


def test_registration_discovery(bench_dir, capsys):
    names = [name for name, _ in registered_benches(bench_dir)]
    assert names == ["toy"]
    assert "bench_broken" in capsys.readouterr().out


#: A fixed revision, so the ledger tests do not depend on a git checkout.
FIXED_REV = "0123456789abcdef0123456789abcdef01234567"


def test_run_ledger_appends_attributed_records(bench_dir, tmp_path, monkeypatch):
    monkeypatch.setattr("repro.obs.bench.git_revision", lambda cwd=None: FIXED_REV)
    history = tmp_path / "hist.jsonl"
    written = run_ledger(bench_dir, history)
    assert len(written) == 1
    records = load_history(history)
    assert len(records) == 1
    record = records[0]
    assert record["name"] == "toy"
    assert record["seed"] == 7
    assert record["metrics"] == {"elapsed_ms": 100.0, "quality": 0.9}
    assert record["context"]["gated"] == {
        "elapsed_ms": "lower", "quality": "higher"
    }
    assert set(record["context"]["host"]) >= {"node", "python", "cpus"}
    assert record["git_rev"] == FIXED_REV
    # A second run accumulates, never truncates.
    run_ledger(bench_dir, history)
    assert len(load_history(history)) == 2


def test_run_ledger_records_a_missing_rev_as_null(bench_dir, tmp_path, monkeypatch):
    """Outside a git checkout the rev is JSON null and reported as unknown."""
    monkeypatch.setattr("repro.obs.bench.git_revision", lambda cwd=None: None)
    history = tmp_path / "hist.jsonl"
    run_ledger(bench_dir, history)
    (line,) = history.read_text().splitlines()
    assert json.loads(line)["git_rev"] is None
    assert '"git_rev": null' in line
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "benches": {"toy": {"metrics": {"elapsed_ms": {"max": 150.0}}}}
    }))
    result = compare_ledger(history, baseline)
    assert result["failures"] == []
    assert "toy @ unknown:" in result["rows"]


def test_host_fingerprint_is_stable_and_json_safe():
    fp = host_fingerprint()
    assert fp == host_fingerprint()
    json.dumps(fp)


def test_compare_absolute_baseline_pass_and_fail(bench_dir, tmp_path):
    history = tmp_path / "hist.jsonl"
    run_ledger(bench_dir, history)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "benches": {"toy": {"metrics": {
            "elapsed_ms": {"max": 150.0},
            "quality": {"min": 0.5},
        }}}
    }))
    result = compare_ledger(history, baseline)
    assert result["failures"] == []
    baseline.write_text(json.dumps({
        "benches": {"toy": {"metrics": {"elapsed_ms": {"max": 50.0}}}}
    }))
    result = compare_ledger(history, baseline)
    assert any("elapsed_ms" in f for f in result["failures"])


def test_synthetic_25pct_slowdown_fails_a_20pct_gate(bench_dir, tmp_path):
    history = tmp_path / "hist.jsonl"
    run_ledger(bench_dir, history)
    # Both records carry fake revisions, so the test does not depend on
    # running inside a git checkout (outside one the recorded rev is empty).
    base = load_history(history)[0]
    base_rev = base["git_rev"] = "a" * 40
    # Re-record the bench 25% slower (and 25% worse) under a fake new rev.
    slow = json.loads(json.dumps(base))
    slow["git_rev"] = "f" * 40
    slow["metrics"]["elapsed_ms"] *= 1.25
    slow["metrics"]["quality"] *= 0.75
    history.write_text("".join(json.dumps(r) + "\n" for r in (base, slow)))

    result = compare_ledger(history, against=base_rev, gate_pct=20.0)
    assert len(result["failures"]) == 2
    assert any("elapsed_ms" in f and "+25.0%" in f
               for f in result["failures"])
    assert any("quality" in f for f in result["failures"])
    # The same history passes a generous 30% gate.
    assert compare_ledger(history, against=base_rev,
                          gate_pct=30.0)["failures"] == []


def test_compare_failure_modes_are_reported_not_raised(tmp_path):
    missing = compare_ledger(tmp_path / "none.jsonl", tmp_path / "no.json")
    assert any("no ledger history" in f for f in missing["failures"])
    history = tmp_path / "hist.jsonl"
    history.write_text(json.dumps({
        "schema": 1, "name": "toy", "git_rev": "a" * 40,
        "metrics": {"x": 1.0}, "context": {},
    }) + "\n")
    assert any("no baseline" in f for f in compare_ledger(
        history, tmp_path / "no.json")["failures"])
    assert any("no history records for rev" in f for f in compare_ledger(
        history, against="bbbb")["failures"])
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "benches": {"toy": {"metrics": {"absent": {"max": 1.0}}}}
    }))
    assert any("missing" in f for f in compare_ledger(
        history, baseline)["failures"])


def test_latest_by_name_takes_the_newest_record():
    records = [
        {"name": "a", "metrics": {"x": 1}},
        {"name": "b", "metrics": {"x": 9}},
        {"name": "a", "metrics": {"x": 2}},
    ]
    latest = latest_by_name(records)
    assert latest["a"]["metrics"]["x"] == 2


def test_sparkline_and_history_table():
    assert sparkline([]) == ""
    line = sparkline([0.0, 0.5, 1.0])
    assert len(line) == 3 and line[0] != line[-1]
    records = [
        {"name": "toy", "git_rev": "a" * 40, "metrics": {"ms": 100.0}},
        {"name": "toy", "git_rev": "b" * 40, "metrics": {"ms": 150.0}},
    ]
    table = history_table(records)
    assert "toy" in table and "ms" in table
    assert "+50.0%" in table


def test_cli_bench_run_and_compare(bench_dir, tmp_path, capsys):
    history = tmp_path / "hist.jsonl"
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "benches": {"toy": {"metrics": {"elapsed_ms": {"max": 150.0}}}}
    }))
    assert main([
        "bench", "run", "--bench-dir", str(bench_dir),
        "--history", str(history),
    ]) == 0
    assert main([
        "bench", "compare", "--history", str(history),
        "--baseline", str(baseline), "--gate", "20",
    ]) == 0
    out = capsys.readouterr().out
    assert "ledger gate passed" in out
    baseline.write_text(json.dumps({
        "benches": {"toy": {"metrics": {"elapsed_ms": {"max": 50.0}}}}
    }))
    assert main([
        "bench", "compare", "--history", str(history),
        "--baseline", str(baseline),
    ]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_cli_bench_run_empty_dir_exits_2(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["bench", "run", "--bench-dir", str(empty),
                 "--history", str(tmp_path / "h.jsonl")]) == 2


def test_cli_stats_nway_history(bench_dir, tmp_path, capsys):
    history = tmp_path / "hist.jsonl"
    run_ledger(bench_dir, history)
    run_ledger(bench_dir, history)
    assert main(["stats", "--compare", str(history)]) == 0
    out = capsys.readouterr().out
    assert "2 runs" in out and "elapsed_ms" in out


# -- SA convergence curves --------------------------------------------------


def test_curve_recorder_respects_its_budget():
    recorder = CurveRecorder(budget=8)
    for i in range(1000):
        recorder.observe(i, 100.0 - i * 0.1, 90.0, 0.5, 0.01)
    points = recorder.finish()
    assert len(points) <= 8 + 1  # finish() may append the final sample
    assert recorder.stride > 1
    moves = [p[0] for p in points]
    assert moves == sorted(moves)
    assert moves[-1] == 999  # the last observation always survives


def test_curve_recorder_small_runs_keep_every_point():
    recorder = CurveRecorder()
    for i in range(10):
        recorder.observe(i, float(10 - i), float(10 - i), 1.0, 0.1)
    assert len(recorder.finish()) == 10
    assert recorder.stride == 1


def test_curve_emit_and_extract_roundtrip():
    events = []
    telemetry = Telemetry(sink=events.append)
    recorder = CurveRecorder()
    recorder.observe(0, 10.0, 10.0, 1.0, 0.5)
    recorder.observe(1, 8.0, 8.0, 1.0, 0.4)
    recorder.emit(telemetry, circuit="circuit1")
    curves = extract_curves(events)
    assert len(curves) == 1
    assert curves[0]["name"] == "circuit1"
    doc = curve_to_json(curves[0])
    assert doc["schema"] == 1
    assert doc["final_cost"] == 8.0
    assert doc["columns"][COST] == "cost"


def test_annealer_emits_a_curve_when_telemetry_is_on(tmp_path):
    state = {"x": 50.0}

    def propose(rng):
        return rng.uniform(-1.0, 1.0)

    def apply(move):
        state["x"] += move

    def undo(move):
        state["x"] -= move

    events = []
    annealer = SimulatedAnnealer(SAParams(
        initial_temp=1.0, final_temp=0.01, cooling=0.8, moves_per_temp=5
    ))
    with using_telemetry(Telemetry(sink=events.append)):
        annealer.optimize(
            propose=propose, apply=apply, undo=undo,
            cost=lambda: abs(state["x"]), seed=3, curve_label="toy-design",
        )
    curves = extract_curves(events)
    assert len(curves) == 1
    curve = curves[0]
    assert curve["name"] == "toy-design"
    assert 1 <= len(curve["points"]) <= 2 * CURVE_POINT_BUDGET
    # One sample per temperature step of the schedule.
    assert curve["total_steps"] == len(curve["points"])

    # And the artifacts render from the same events.
    out = write_curves(events, tmp_path)
    names = {Path(p).name for p in out}
    assert "sa_curve_toy-design.svg" in names
    assert "sa_curve_toy-design.json" in names
    svg = (tmp_path / "sa_curve_toy-design.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_annealer_emits_no_curve_when_telemetry_is_off():
    state = {"x": 5.0}
    annealer = SimulatedAnnealer(SAParams(
        initial_temp=1.0, final_temp=0.1, cooling=0.5, moves_per_temp=2
    ))
    stats = annealer.optimize(
        propose=lambda rng: rng.uniform(-1, 1),
        apply=lambda m: state.__setitem__("x", state["x"] + m),
        undo=lambda m: state.__setitem__("x", state["x"] - m),
        cost=lambda: abs(state["x"]),
        seed=1, curve_label="quiet",
    )
    assert stats.proposed > 0  # ran fine with no telemetry and no curve


def test_render_curve_svg_is_selfcontained():
    curve = {
        "name": "c", "stride": 1, "total_steps": 3,
        "points": [[0, 10.0, 10.0, 1.0, 1.0], [1, 6.0, 6.0, 0.5, 0.5],
                   [2, 5.0, 5.0, 0.2, 0.1]],
    }
    svg = render_curve_svg(curve)
    assert svg.count("<polyline") == 3  # cost, best, acceptance
    assert "xmlns" in svg


def test_write_curves_suffixes_same_named_curves(tmp_path):
    """Two same-named sa.curve events in one trace must land in distinct
    files: occurrence 0 keeps the bare label, occurrence 1 gets `_1`."""
    events = []
    telemetry = Telemetry(sink=events.append)
    for run in range(2):
        recorder = CurveRecorder()
        for i in range(4):
            recorder.observe(i, 10.0 - run - i, 10.0 - run - i, 1.0, 0.5)
        recorder.emit(telemetry, circuit="circuit1")
    out = write_curves(events, tmp_path)
    names = sorted(Path(p).name for p in out)
    assert names == [
        "sa_curve_circuit1.json", "sa_curve_circuit1.svg",
        "sa_curve_circuit1_1.json", "sa_curve_circuit1_1.svg",
    ]
    first = json.loads((tmp_path / "sa_curve_circuit1.json").read_text())
    second = json.loads((tmp_path / "sa_curve_circuit1_1.json").read_text())
    # Both runs survived -- nothing overwrote; order of occurrence preserved.
    assert first["final_cost"] == pytest.approx(7.0)
    assert second["final_cost"] == pytest.approx(6.0)


def test_write_curves_never_reuses_a_claimed_name(tmp_path):
    """A literal `circuit1_1` label coexisting with duplicate `circuit1`
    labels used to collide: the second `circuit1` rendered as `circuit1_1`
    and silently overwrote the real one."""
    events = []
    telemetry = Telemetry(sink=events.append)
    for label, cost in (("circuit1_1", 5.0), ("circuit1", 4.0),
                        ("circuit1", 3.0)):
        recorder = CurveRecorder()
        recorder.observe(0, cost, cost, 1.0, 0.5)
        recorder.observe(1, cost, cost, 1.0, 0.4)
        recorder.emit(telemetry, circuit=label)
    out = write_curves(events, tmp_path)
    json_names = sorted(Path(p).name for p in out if p.endswith(".json"))
    assert json_names == [
        "sa_curve_circuit1.json",
        "sa_curve_circuit1_1.json",
        "sa_curve_circuit1_2.json",
    ]
    # The literal circuit1_1 curve kept its file; the colliding duplicate
    # was pushed to the next free occurrence slot.
    kept = json.loads((tmp_path / "sa_curve_circuit1_1.json").read_text())
    assert kept["final_cost"] == pytest.approx(5.0)
    bumped = json.loads((tmp_path / "sa_curve_circuit1_2.json").read_text())
    assert bumped["final_cost"] == pytest.approx(3.0)


def test_cli_stats_curves_writes_artifacts(tmp_path, capsys):
    events = []
    telemetry = Telemetry(sink=events.append)
    recorder = CurveRecorder()
    for i in range(5):
        recorder.observe(i, 10.0 - i, 10.0 - i, 1.0, 0.5)
    recorder.emit(telemetry, circuit="cli-circuit")
    trace = tmp_path / "trace.jsonl"
    with trace.open("w") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")
    out_dir = tmp_path / "curves"
    assert main(["stats", str(trace), "--curves",
                 "--curves-dir", str(out_dir)]) == 0
    assert (out_dir / "sa_curve_cli-circuit.svg").exists()
    doc = json.loads((out_dir / "sa_curve_cli-circuit.json").read_text())
    assert doc["name"] == "cli-circuit"
    assert len(doc["points"]) == 5
