"""The differential fuzzer: generator, oracles, shrinker, corpus, CLI.

Tier-1 includes the corpus replay (every minimized repro stays green
forever) and a teeth test proving the engine oracle actually detects the
seed=None cache poisoning its corpus entry was minimized from.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.fuzz import (
    CASE_FORMAT,
    CaseGenerator,
    FuzzCase,
    FuzzFailure,
    ORACLES,
    SkippedCase,
    failure_predicate,
    generate_cases,
    load_corpus,
    replay_corpus,
    run_fuzz,
    save_corpus_entry,
    shrink_case,
)
from repro.fuzz.oracles import oracle_engine
from repro.runtime.telemetry import Telemetry

CORPUS_DIR = Path(__file__).parent / "data" / "fuzz_corpus"


# -- generator -------------------------------------------------------------


class TestGenerator:
    def test_same_seed_same_stream(self):
        assert generate_cases(12, seed=5) == generate_cases(12, seed=5)

    def test_different_seeds_differ(self):
        assert generate_cases(12, seed=5) != generate_cases(12, seed=6)

    def test_every_case_is_constructible(self):
        for case in generate_cases(50, seed=1):
            case.build_spec()  # must not raise

    def test_stream_covers_the_edge_pools(self):
        cases = generate_cases(120, seed=0)
        tiers = {case.spec["tier_count"] for case in cases}
        supplies = {case.spec["supply_fraction"] for case in cases}
        assert 1 in tiers and 8 in tiers
        assert 0.0 in supplies and 1.0 in supplies
        assert any(case.split_networks for case in cases)

    def test_json_roundtrip_preserves_identity(self):
        for case in generate_cases(10, seed=2):
            clone = FuzzCase.from_json(json.loads(json.dumps(case.to_json())))
            assert clone == case
            assert clone.digest() == case.digest()


# -- oracles ---------------------------------------------------------------


class TestOracles:
    def test_campaign_is_green(self):
        report = run_fuzz(cases=12, seed=0, telemetry=Telemetry())
        assert report.ok, report.render()
        assert report.cases == 12
        assert set(report.per_oracle) == set(ORACLES)

    def test_supply_free_design_skips_consistently(self):
        case = FuzzCase(
            spec={"name": "nosupply", "finger_count": 8, "quadrant_count": 4,
                  "rows_per_quadrant": 1, "supply_fraction": 0.0},
        )
        with pytest.raises(SkippedCase):
            ORACLES["backends"](case)

    def test_engine_oracle_catches_unpinned_seedless_specs(self, monkeypatch):
        """Teeth check: re-open the seed=None cache hole, the oracle must
        flag the corpus case it was minimized from."""
        from repro.runtime.engine import JobEngine

        monkeypatch.setattr(
            JobEngine, "_effective_spec", lambda self, spec: spec
        )
        entries = [e for e in load_corpus(CORPUS_DIR) if e["oracle"] == "engine"]
        assert entries, "the engine corpus entry must stay checked in"
        case = FuzzCase.from_json(entries[0]["case"])
        problems = oracle_engine(case)
        assert any("poisoned" in problem for problem in problems), problems

    def test_unknown_oracle_selection_rejected(self):
        with pytest.raises(KeyError):
            run_fuzz(cases=1, oracles=["nope"], telemetry=Telemetry())


# -- shrinker --------------------------------------------------------------


class TestShrinker:
    def test_minimizes_to_the_failing_core(self):
        case = CaseGenerator(9).case()
        case = replace(
            case,
            spec=dict(case.spec, finger_count=40, quadrant_count=4,
                      rows_per_quadrant=2, tier_count=4),
        )

        def is_failing(candidate):
            return (
                candidate.spec["finger_count"] >= 10
                and candidate.spec["tier_count"] >= 2
            )

        assert is_failing(case)
        shrunk, evals = shrink_case(case, is_failing)
        assert evals > 0
        assert is_failing(shrunk)
        # every single-field simplification of the result passes
        assert shrunk.spec["tier_count"] == 2
        assert shrunk.spec["finger_count"] == 10
        assert shrunk.spec["quadrant_count"] == 1
        assert shrunk.design_seed == 0 and shrunk.run_seed == 0

    def test_shrink_is_deterministic(self):
        case = CaseGenerator(4).case()
        case = replace(case, spec=dict(case.spec, finger_count=24))

        def is_failing(candidate):
            return candidate.spec["finger_count"] >= 6

        first = shrink_case(case, is_failing)
        second = shrink_case(case, is_failing)
        assert first == second

    def test_skipped_cases_count_as_passing(self):
        case = CaseGenerator(2).case()

        def oracle(candidate):
            if candidate.spec.get("tier_count", 1) == 1:
                raise SkippedCase("degenerate")
            return ["boom"]

        predicate = failure_predicate(oracle)
        assert not predicate(replace(case, spec=dict(case.spec, tier_count=1)))
        assert predicate(replace(case, spec=dict(case.spec, tier_count=2)))


# -- corpus ----------------------------------------------------------------


class TestCorpus:
    def test_checked_in_corpus_replays_green(self):
        """Tier-1 guarantee: every minimized repro stays fixed forever."""
        report = replay_corpus(CORPUS_DIR, telemetry=Telemetry())
        assert report.cases >= 1, "corpus must not be empty"
        assert report.ok, report.render()

    def test_save_and_replay_roundtrip(self, tmp_path):
        case = CaseGenerator(0).case()
        failure = FuzzFailure(oracle="density", case=case, problems=["x"])
        path = save_corpus_entry(tmp_path, failure)
        payload = json.loads(path.read_text())
        assert payload["format"] == CASE_FORMAT
        assert payload["oracle"] == "density"
        [entry] = load_corpus(tmp_path)
        assert FuzzCase.from_json(entry["case"]) == case

    def test_unknown_format_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"format": "nope/9"}))
        with pytest.raises(ValueError):
            load_corpus(tmp_path)

    def test_unknown_oracle_in_corpus_is_a_failure(self, tmp_path):
        case = CaseGenerator(0).case()
        failure = FuzzFailure(oracle="density", case=case, problems=["x"])
        path = save_corpus_entry(tmp_path, failure)
        payload = json.loads(path.read_text())
        payload["oracle"] = "retired-oracle"
        path.write_text(json.dumps(payload))
        report = replay_corpus(tmp_path, telemetry=Telemetry())
        assert not report.ok


# -- probe job -------------------------------------------------------------


class TestProbeJob:
    def test_resolves_via_prefix_hook_and_validates(self):
        from repro.runtime.spec import resolve_job_type
        from repro.verify import check_job_value

        runner = resolve_job_type("fuzz_probe")
        case = CaseGenerator(0).case()
        value = runner({"spec": dict(case.spec),
                        "design_seed": case.design_seed}, 7)
        assert value["seed"] == 7
        assert check_job_value("fuzz_probe", value).ok


# -- CLI -------------------------------------------------------------------


class TestFuzzCli:
    def test_run_writes_schema_valid_trace(self, tmp_path, capsys):
        trace = tmp_path / "fuzz.jsonl"
        assert main([
            "fuzz", "--cases", "4", "--seed", "1",
            "--corpus", str(tmp_path / "corpus"),
            "--trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
        assert main(["check-trace", str(trace)]) == 0
        capsys.readouterr()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {event["event"] for event in events}
        assert {"fuzz.begin", "fuzz.end"} <= names

    def test_replay_subcommand(self, capsys):
        assert main(["fuzz", "replay", "--corpus", str(CORPUS_DIR)]) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_oracle_filter(self, tmp_path, capsys):
        assert main([
            "fuzz", "--cases", "3", "--oracle", "density",
            "--corpus", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "density" in out and "backends" not in out

    def test_minutes_budget_stops_early(self, tmp_path, capsys):
        assert main([
            "fuzz", "--cases", "100000", "--minutes", "0.0001",
            "--corpus", str(tmp_path),
        ]) == 0
        report_line = capsys.readouterr().out.splitlines()[0]
        cases = int(report_line.split("fuzz: ")[1].split(" case")[0])
        assert cases < 100000
