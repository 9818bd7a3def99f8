"""The verification subsystem: checkers, diagnostics, policies, repair.

The checkers must (a) pass real algorithm output untouched and (b) flag
every corruption we can fabricate, with stable machine-readable codes.
The repair must restore legality without changing the density footprint.
"""

from repro.assign import assign_design
import math

import pytest

from repro.assign import Assignment, DFAAssigner, IFAAssigner, row_violations
from repro.circuits import build_design, table1_circuit
from repro.errors import VerificationError, classify_error
from repro.geometry import Side
from repro.package import PackageDesign, quadrant_from_rows
from repro.routing import max_density
from repro.verify import (
    Diagnostic,
    VerificationReport,
    check_assignments,
    check_design,
    check_job_value,
    check_power_values,
    normalize,
    repair_assignment,
    repair_assignments,
)


def small_design(rows=((0, 1, 2, 3), (4, 5, 6))):
    quadrant = quadrant_from_rows([list(row) for row in rows])
    return PackageDesign({Side.BOTTOM: quadrant}, name="small")


class TestDiagnostics:
    def test_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            Diagnostic(code="x", severity="fatal", message="nope")

    def test_report_ok_ignores_warnings_and_info(self):
        report = VerificationReport(subject="s")
        report.warning("w.code", "warn")
        report.info("i.code", "info")
        assert report.ok
        report.error("e.code", "bad")
        assert not report.ok
        assert report.codes("error") == ["e.code"]
        assert report.has("w.code")

    def test_raise_if_errors_carries_diagnostics(self):
        report = VerificationReport(subject="s")
        report.error("e.one", "first", side="bottom")
        report.error("e.two", "second")
        with pytest.raises(VerificationError) as excinfo:
            report.raise_if_errors()
        assert [d.code for d in excinfo.value.diagnostics] == ["e.one", "e.two"]
        assert classify_error(excinfo.value) == "verification"

    def test_clean_report_renders_and_does_not_raise(self):
        report = VerificationReport(subject="s")
        assert report.raise_if_errors() is report
        assert "clean" in report.render()


class TestCheckDesign:
    def test_table1_design_is_clean(self):
        design = build_design(table1_circuit(1), seed=0)
        assert check_design(design).ok

    def test_small_design_is_clean(self):
        assert check_design(small_design()).ok

    def test_empty_design(self):
        class Hollow:
            name = "hollow"
            quadrants = {}

        report = check_design(Hollow())
        assert report.has("design.empty") and not report.ok

    def test_cross_quadrant_duplicate_is_a_warning(self):
        design = PackageDesign(
            {
                Side.BOTTOM: quadrant_from_rows([[0, 1]]),
                Side.TOP: quadrant_from_rows([[0, 1]]),
            }
        )
        report = check_design(design)
        assert report.ok  # warnings only
        assert "design.duplicate-net" in report.codes("warning")

    def test_tier_range_caught_on_mutated_design(self):
        design = build_design(table1_circuit(1, tier_count=4), seed=0)
        # simulate post-construction corruption: shrink the stack in place
        from repro.package import StackingConfig

        design.stacking = StackingConfig(tier_count=1)
        report = check_design(design)
        assert "design.tier-range" in report.codes("error")


class TestCheckAssignments:
    def test_dfa_output_passes_deep_check(self):
        design = build_design(table1_circuit(1), seed=0)
        assignments = assign_design(DFAAssigner(), design, seed=0)
        report = check_assignments(design, assignments, deep=True)
        assert report.ok, report.render()

    def test_ifa_output_passes_deep_check(self):
        design = small_design()
        assignments = assign_design(IFAAssigner(), design, seed=0)
        assert check_assignments(design, assignments, deep=True).ok

    def test_missing_side(self):
        design = small_design()
        report = check_assignments(design, {})
        assert "assign.missing-side" in report.codes("error")

    def test_extra_side(self):
        design = small_design()
        assignments = assign_design(DFAAssigner(), design)
        assignments[Side.TOP] = assignments[Side.BOTTOM]
        report = check_assignments(design, assignments)
        assert "assign.extra-side" in report.codes("error")

    def test_monotonic_violation(self):
        design = small_design(rows=((0, 1, 2, 3),))
        quadrant = design.quadrants[Side.BOTTOM]
        illegal = Assignment(quadrant, [3, 2, 1, 0])
        report = check_assignments(design, {Side.BOTTOM: illegal}, deep=False)
        assert "assign.monotonic" in report.codes("error")

    def test_not_bijective_after_mutation(self):
        design = small_design()
        assignments = assign_design(DFAAssigner(), design)
        # corrupt the internal order the way a buggy in-place mutation would
        assignments[Side.BOTTOM]._order[0] = assignments[Side.BOTTOM]._order[1]
        report = check_assignments(design, assignments, deep=False)
        assert "assign.not-bijective" in report.codes("error")

    @pytest.mark.parametrize(
        "rows", [[[5, 6, 7], [9, 10, 11]], [[5, 6, 700], [900]]],
        ids=["dense", "sparse"],
    )
    def test_fastcost_flags_an_id_of_no_net(self, rows):
        """An order holding an id in a gap of the net ids must be an
        ``assign.fastcost-drift`` finding, not a crash or a silent pass."""
        from repro.verify.checkers import _check_fastcost

        quadrant = quadrant_from_rows(rows, supply_ids=[6])
        design = PackageDesign({Side.BOTTOM: quadrant}, name="gapped")
        baseline = assign_design(DFAAssigner(), design)
        corrupt = {side: a.copy() for side, a in baseline.items()}
        order = corrupt[Side.BOTTOM]._order
        order[order.index(5)] = 8
        report = VerificationReport(subject="gapped")
        _check_fastcost(design, corrupt, baseline, report)
        assert "assign.fastcost-drift" in report.codes("error")


class TestCheckPower:
    def test_clean_values(self):
        assert check_power_values({"a": 0.0, "b": 1.5, "c": None}).ok

    def test_nonfinite(self):
        report = check_power_values({"ir": float("nan"), "x": float("inf")})
        assert report.codes("error") == ["power.nonfinite", "power.nonfinite"]

    def test_negative(self):
        report = check_power_values({"ir": -0.25})
        assert report.has("power.negative")


class TestCheckJobValue:
    GOOD = {
        "circuit": "C1",
        "assigner": "DFA",
        "max_density": 5,
        "wirelength": 120.5,
        "flyline_length": 90.0,
    }

    def test_good_table2_cell(self):
        assert check_job_value("table2_cell", self.GOOD).ok

    def test_missing_key(self):
        bad = dict(self.GOOD)
        del bad["max_density"]
        report = check_job_value("table2_cell", bad)
        assert "job.schema" in report.codes("error")

    def test_wrong_shape(self):
        report = check_job_value("table2_cell", [1, 2, 3])
        assert "job.schema" in report.codes("error")

    def test_nested_nonfinite(self):
        bad = dict(self.GOOD, extras={"trace": [1.0, float("nan")]})
        report = check_job_value("table2_cell", bad)
        assert "job.nonfinite" in report.codes("error")

    def test_negative_density(self):
        bad = dict(self.GOOD, max_density=-1)
        report = check_job_value("table2_cell", bad)
        assert "job.negative" in report.codes("error")

    def test_unknown_kind_only_scans_finiteness(self):
        assert check_job_value("echo", {"anything": 1}).ok
        assert not check_job_value("echo", {"x": float("inf")}).ok


class TestPolicy:
    def test_normalize(self):
        assert normalize(None) == "off"
        assert normalize("STRICT") == "strict"
        with pytest.raises(ValueError, match="verify policy"):
            normalize("paranoid")


def _footprint(assignment):
    """Per-row sets of occupied slots — what the repair must preserve."""
    quadrant = assignment.quadrant
    return {
        row: frozenset(
            assignment.slot_of(n) for n in quadrant.row_nets(row)
        )
        for row in range(1, quadrant.row_count + 1)
    }


class TestRepair:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 99])
    def test_repair_restores_legality_after_random_perturbation(self, seed):
        import random

        design = small_design(rows=((0, 1, 2, 3, 4), (5, 6, 7), (8, 9)))
        assignment = DFAAssigner().assign(design.quadrants[Side.BOTTOM])
        rng = random.Random(seed)
        for __ in range(15):
            a = rng.randrange(1, assignment.slot_count + 1)
            b = rng.randrange(1, assignment.slot_count + 1)
            if a != b:
                assignment.swap_slots(a, b)
        before = _footprint(assignment)
        repair_assignment(assignment)
        assert row_violations(assignment) == []
        assert _footprint(assignment) == before
        # a repaired assignment is routable again
        assert max_density(assignment) >= 1

    def test_repair_is_noop_on_legal_assignment(self):
        design = small_design()
        assignments = assign_design(DFAAssigner(), design)
        moved = repair_assignments(design, assignments)
        assert sum(moved.values()) == 0
        assert check_assignments(design, assignments, deep=False).ok

    def test_design_level_repair(self):
        design = small_design(rows=((0, 1, 2, 3),))
        quadrant = design.quadrants[Side.BOTTOM]
        assignments = {Side.BOTTOM: Assignment(quadrant, [3, 2, 1, 0])}
        assert not check_assignments(design, assignments, deep=False).ok
        repair_assignments(design, assignments)
        assert check_assignments(design, assignments, deep=True).ok


class TestCoDesignFlowVerify:
    def _flow(self, verify):
        from repro.exchange import SAParams
        from repro.flow import CoDesignFlow
        from repro.power import PowerGridConfig

        return CoDesignFlow(
            sa_params=SAParams(
                initial_temp=0.03, final_temp=0.01, cooling=0.5, moves_per_temp=10
            ),
            grid_config=PowerGridConfig(size=8),
            verify=verify,
        )

    def test_strict_flow_runs_clean(self):
        design = build_design(table1_circuit(1), seed=0)
        result = self._flow("strict").run(design, seed=0)
        assert check_assignments(
            design,
            result.assignments_final,
            baseline=result.assignments_initial,
        ).ok

    def test_strict_rejects_illegal_stage_output(self):
        design = small_design(rows=((0, 1, 2, 3),))
        quadrant = design.quadrants[Side.BOTTOM]
        illegal = {Side.BOTTOM: Assignment(quadrant, [3, 2, 1, 0])}
        with pytest.raises(VerificationError):
            self._flow("strict")._verified_assignments(
                design, illegal, stage="assignment", seed=0
            )

    def test_repair_relegalizes_stage_output(self):
        design = small_design(rows=((0, 1, 2, 3),))
        quadrant = design.quadrants[Side.BOTTOM]
        illegal = {Side.BOTTOM: Assignment(quadrant, [3, 2, 1, 0])}
        repaired = self._flow("repair")._verified_assignments(
            design, illegal, stage="assignment", seed=0
        )
        assert check_assignments(design, repaired, deep=True).ok

    def test_strict_flow_rejects_mutated_design(self):
        from repro.package import StackingConfig

        design = build_design(table1_circuit(1, tier_count=4), seed=0)
        design.stacking = StackingConfig(tier_count=1)
        with pytest.raises(VerificationError):
            self._flow("strict").run(design, seed=0)


class TestEngineVerify:
    def _engine(self, tmp_path, verify, telemetry=None):
        from repro.runtime import JobEngine, ResultCache

        return JobEngine(
            cache=ResultCache(tmp_path / "cache"),
            verify=verify,
            retries=1,
            backoff=0.001,
            telemetry=telemetry,
        )

    def test_digest_corruption_is_a_miss_and_recomputes(self, tmp_path):
        from repro.runtime import JobSpec, Telemetry
        from repro.verify.chaos import corrupt_cache_entry

        spec = JobSpec("chaos_bad_value", {"fail_times": 0}, seed=3)
        telemetry = Telemetry()
        engine = self._engine(tmp_path, "strict", telemetry)
        first = engine.run_one(spec)
        assert first.ok and first.value["max_density"] == 7
        corrupt_cache_entry(engine.cache, spec, mode="digest")
        again = self._engine(tmp_path, "strict", telemetry).run_one(spec)
        assert again.ok and not again.cached
        assert again.value == first.value
        assert telemetry.events_named("cache.invalid")

    def test_schema_corruption_is_a_miss(self, tmp_path):
        from repro.runtime import JobSpec, Telemetry
        from repro.runtime.cache import MISS
        from repro.runtime.telemetry import using_telemetry
        from repro.verify.chaos import corrupt_cache_entry

        spec = JobSpec("chaos_bad_value", {"fail_times": 0}, seed=3)
        telemetry = Telemetry()
        engine = self._engine(tmp_path, "off", telemetry)
        engine.run_one(spec)
        corrupt_cache_entry(engine.cache, spec, mode="schema")
        with using_telemetry(telemetry):
            assert engine.cache.get(spec) is MISS
        assert engine.cache.stats["invalid"] == 1
        events = telemetry.events_named("cache.invalid")
        assert events and events[-1]["reason"] == "stale-schema"

    def test_nan_cached_value_dropped_under_verify(self, tmp_path):
        from repro.runtime import JobSpec, Telemetry
        from repro.verify.chaos import corrupt_cache_entry

        spec = JobSpec("chaos_bad_value", {"fail_times": 0}, seed=3)
        telemetry = Telemetry()
        engine = self._engine(tmp_path, "strict", telemetry)
        engine.run_one(spec)
        corrupt_cache_entry(engine.cache, spec, mode="nan_value")
        again = self._engine(tmp_path, "strict", telemetry).run_one(spec)
        assert again.ok and not again.cached
        assert again.value["max_density"] == 7
        assert telemetry.events_named("job.invalid")

    def test_nan_cached_value_served_when_verify_off(self, tmp_path):
        from repro.runtime import JobSpec
        from repro.verify.chaos import corrupt_cache_entry

        spec = JobSpec("chaos_bad_value", {"fail_times": 0}, seed=3)
        engine = self._engine(tmp_path, "off")
        engine.run_one(spec)
        corrupt_cache_entry(engine.cache, spec, mode="nan_value")
        served = self._engine(tmp_path, "off").run_one(spec)
        # documents why --verify exists: off trusts the poisoned entry
        assert served.cached and math.isnan(served.value["max_density"])

    def test_strict_fails_fast_on_invalid_fresh_value(self, tmp_path):
        from repro.runtime import JobEngine, JobSpec

        spec = JobSpec(
            "chaos_bad_value",
            {"fail_times": 5, "marker": str(tmp_path / "marker")},
            seed=0,
        )
        outcome = JobEngine(verify="strict", retries=3, backoff=0.001).run_one(spec)
        assert not outcome.ok
        assert outcome.error_class == "verification"
        assert outcome.attempts == 1  # a verdict, not a flake: no retries

    def test_repair_retries_invalid_fresh_value(self, tmp_path):
        from repro.runtime import JobEngine, JobSpec

        spec = JobSpec(
            "chaos_bad_value",
            {"fail_times": 1, "marker": str(tmp_path / "marker")},
            seed=0,
        )
        outcome = JobEngine(verify="repair", retries=2, backoff=0.001).run_one(spec)
        assert outcome.ok
        assert outcome.value["max_density"] == 7
        assert outcome.attempts == 2


class TestCheckWorkloadCli:
    def test_check_smoke_strict_is_clean(self, capsys):
        from repro.cli import main

        assert main(["check", "smoke", "--verify", "strict"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_check_rejects_off(self, capsys):
        from repro.cli import main

        assert main(["check", "smoke", "--verify", "off"]) == 2

    def test_check_workload_requires_active_policy(self):
        from repro.verify import check_workload

        with pytest.raises(ValueError, match="active policy"):
            check_workload("smoke", verify="off")
