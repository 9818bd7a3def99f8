"""Self-test of the co-design benchmark: ``pytest benchmarks/codesign``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent.parent / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_layer(monkeypatch):
    """A module whose ``outer`` spends 1 + 3 s around ``inner``'s 2 s, twice."""
    clock = FakeClock()
    module = types.ModuleType("fake_layer")

    def inner():
        clock.advance(2.0)
        return "inner"

    def outer():
        clock.advance(1.0)
        module.inner()
        module.inner()
        clock.advance(3.0)
        return "outer"

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module, clock


def test_nested_wrappers_charge_self_time(fake_layer):
    module, clock = fake_layer
    originals = (module.outer, module.inner)
    tracer = layers.Tracer(clock=clock)
    targets = (("outer", "fake_layer", "outer"), ("inner", "fake_layer", "inner"))
    with layers.patched(tracer, targets):
        assert module.outer() == "outer"
    assert tracer.self_s == {"outer": 4.0, "inner": 4.0}
    assert tracer.calls == {"outer": 1, "inner": 2}
    # Self-times sum to the wall time the outermost wrapper covered.
    assert sum(tracer.self_s.values()) == clock.now == 8.0
    assert (module.outer, module.inner) == originals


def test_inherited_method_is_restored_to_inheritance(fake_layer):
    module, __ = fake_layer

    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    module.Child = Child
    tracer = layers.Tracer()
    with layers.patched(tracer, (("method", "fake_layer", "Child.method"),)):
        assert Child().method() == "base"
    assert "method" not in vars(Child)
    assert tracer.calls["method"] == 1


def test_absent_targets_are_reported_not_raised(fake_layer):
    module, __ = fake_layer
    tracer = layers.Tracer()
    targets = (
        ("gone", "fake_layer", "deleted_function"),
        ("gone", "fake_layer", "DeletedClass.method"),
        ("gone", "repro_module_that_does_not_exist", "anything"),
        ("inner", "fake_layer", "inner"),
    )
    with layers.patched(tracer, targets):
        module.inner()
    assert tracer.absent == 3
    assert tracer.status["fake_layer:inner"] == "ok"
    assert tracer.calls["gone"] == 0
    metrics = layers.layer_metrics(tracer, passes=1, wall=tracer.self_s["inner"] + 1.0)
    assert metrics["trace.absent_targets"] == 3
    assert metrics["flow.untracked_s"] == pytest.approx(1.0)


def test_metric_names_agree_with_benchmark_json():
    bench = run.load_benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in bench["per_layer"]} == set(run.LAYER_MAP)
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    listing = run.list_metrics(bench)
    assert all(name in listing for name in names)


@pytest.mark.parametrize(
    "parent, change, better, verdict",
    [
        ([10.0] * 10, [10.2] * 10, "lower", "unchanged"),
        ([10.0] * 10, [12.0] * 10, "lower", "regressed"),
        ([10.0] * 10, [12.0] * 10, "higher", "improved"),
        ([10.0, 10.1] * 5, [9.0] * 10, "lower", "improved"),
        ([5.0, 15.0] * 5, [10.0, 11.0] * 5, "lower", "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, better, verdict):
    assert run.judge(parent, change, better, bound=0.1) == verdict


@pytest.mark.parametrize(
    "change, verdict",
    [
        ([4.0, 5.0, 6.0] * 3 + [7.0], "unchanged"),
        ([4.0, 5.0, 6.0] * 3 + [7.0 * (1 + 1e-6)], "regressed"),
        ([3.9, 4.9, 5.9] * 3 + [7.0], "improved"),
        ([3.9, 4.9, 5.9] * 3 + [7.1], "regressed"),
        ([3.9, 4.9, 5.9] * 2 + [4.0, 5.0, 6.0, 7.0], "unchanged"),
    ],
)
def test_exact_metrics_are_judged_seed_by_seed(change, verdict):
    # The parent's spread across seeds is 40% of its median, so a rule
    # against the parent's IQR could see none of these changes.
    parent = [4.0, 5.0, 6.0] * 3 + [7.0]
    assert run.judge_exact(parent, change, "lower") == verdict


def _sweep_file(path, sets):
    """A sweep file with one run per seed of every workload in every set."""
    bench = run.load_benchmark()
    doc = {}
    for label, density in sets.items():
        runs = {
            w["name"]: [
                {
                    "seed": seed,
                    "correct": True,
                    "attempted": 1,
                    "failed": 0,
                    "metrics": {
                        **{m["name"]: 1.0 for m in bench["end_to_end"]},
                        "max_density": value,
                    },
                }
                for seed, value in enumerate(density)
            ]
            for w in bench["workloads"]
        }
        doc[label] = {"runs": runs}
    path.write_text(json.dumps(doc))
    return bench


def test_compare_flags_one_seed_worse(tmp_path, capsys):
    path = tmp_path / "pair.json"
    bench = _sweep_file(path, {"a": [4.0, 5.0, 6.0] * 3 + [7.0], "b": [4.0, 5.0, 6.0] * 3 + [8.0]})
    assert run.compare(bench, f"{path}#a", f"{path}#a") == 0
    assert run.compare(bench, str(path), f"{path}#b") == 1
    assert "max_density=regressed" in capsys.readouterr().out


def test_compare_refuses_runs_of_other_seeds(tmp_path):
    path = tmp_path / "pair.json"
    bench = _sweep_file(path, {"a": [4.0] * 10, "b": [4.0] * 9})
    with pytest.raises(run.BenchError, match="seeds differ"):
        run.compare(bench, f"{path}#a", f"{path}#b")


def test_traced_run_on_small_design_covers_the_flow():
    """One traced ``api.run`` on 1,792 fingers through the benchmark's pass."""
    bench = run.load_benchmark()
    designs = [workloads.make_design(1_792, seed=0)]
    samples = iter(range(1, 10))
    record = workloads.run_window(
        "flow", designs, seed=0, seconds=0.0, trace=True,
        sample_setup=lambda: float(next(samples)),
    )
    assert record["failed"] == 0 and record["attempted"] == 2
    assert record["traced_passes"] == 1
    # One sample after the only untraced pass, the rest after the window.
    assert record["setup_samples"] == [1.0, 2.0, 3.0, 4.0]
    layer = record["layers"]
    assert layer["flow.untracked_frac"] < 0.05
    assert layer["trace.absent_targets"] == 0
    assert layer["exchange.proposed"] > 0 and layer["power.ir_calls"] == 2
    expected = {m["name"] for m in bench["per_layer"]} - {"circuits.build_s"}
    assert set(layer) == expected
    assert set(record["samples"]) == {m["name"] for m in bench["end_to_end"]} - {"setup_s"}


def test_run_refuses_without_program_source(tmp_path):
    """A checkout holding only the benchmark exits non-zero with no result."""
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR,
        tmp_path / "benchmarks" / "codesign",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = json.loads(run.BENCHMARK.read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "synth_16k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
