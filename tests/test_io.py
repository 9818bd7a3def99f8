"""Tests for JSON/CSV/SVG serialization."""

from repro.assign import assign_design
import json

import pytest

from repro.assign import DFAAssigner
from repro.errors import SerializationError
from repro.flow import CoDesignFlow, compare_assigners
from repro.exchange import SAParams
from repro.io import (
    assignments_from_dict,
    assignments_to_dict,
    design_from_dict,
    design_to_dict,
    load_assignments,
    load_design,
    read_rows,
    routing_to_svg,
    save_assignments,
    save_design,
    save_routing_svg,
    write_codesign_csv,
    write_comparison_csv,
)
from repro.power import PowerGridConfig
from repro.routing import MonotonicRouter


class TestDesignRoundtrip:
    def test_dict_roundtrip(self, small_design):
        payload = design_to_dict(small_design)
        rebuilt = design_from_dict(payload)
        assert rebuilt.total_net_count == small_design.total_net_count
        assert rebuilt.name == small_design.name
        assert [n.name for __, quadrant in rebuilt for n in quadrant.netlist] == [
            n.name for __, quadrant in small_design for n in quadrant.netlist
        ]

    def test_stacking_preserved(self, stacked_design):
        rebuilt = design_from_dict(design_to_dict(stacked_design))
        assert rebuilt.stacking.tier_count == 4
        assert [n.tier for __, quadrant in rebuilt for n in quadrant.netlist] == [
            n.tier for __, quadrant in stacked_design for n in quadrant.netlist
        ]

    def test_file_roundtrip(self, small_design, tmp_path):
        path = tmp_path / "design.json"
        save_design(small_design, path)
        rebuilt = load_design(path)
        assert rebuilt.total_net_count == small_design.total_net_count

    def test_bad_format_rejected(self):
        with pytest.raises(SerializationError):
            design_from_dict({"format": "something-else"})

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            load_design(tmp_path / "nope.json")

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_design(path)


class TestAssignmentRoundtrip:
    def test_roundtrip(self, small_design, tmp_path):
        assignments = assign_design(DFAAssigner(), small_design)
        path = tmp_path / "assign.json"
        save_assignments(assignments, path)
        rebuilt = load_assignments(path, small_design)
        assert {s: a.order for s, a in rebuilt.items()} == {
            s: a.order for s, a in assignments.items()
        }

    def test_dict_roundtrip(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        rebuilt = assignments_from_dict(
            assignments_to_dict(assignments), small_design
        )
        assert set(rebuilt) == set(assignments)

    def test_bad_format_rejected(self, small_design):
        with pytest.raises(SerializationError):
            assignments_from_dict({"format": "nope"}, small_design)


class TestCSV:
    def test_comparison_csv(self, small_design, tmp_path):
        table = compare_assigners({"c1": small_design}, seed=0)
        path = tmp_path / "table2.csv"
        write_comparison_csv(table, path)
        rows = read_rows(path)
        assert len(rows) == 3
        assert {row["assigner"] for row in rows} == {"Random", "IFA", "DFA"}

    def test_codesign_csv(self, small_design, tmp_path):
        flow = CoDesignFlow(
            sa_params=SAParams(
                initial_temp=0.03, final_temp=1e-3, cooling=0.9, moves_per_temp=40
            ),
            grid_config=PowerGridConfig(size=16),
        )
        result = flow.run(small_design, seed=0)
        path = tmp_path / "table3.csv"
        write_codesign_csv({"c1": result}, path)
        rows = read_rows(path)
        assert len(rows) == 1
        assert float(rows[0]["ir_drop_before_v"]) > 0


class TestSVG:
    def test_svg_structure(self, fig5):
        assignment = DFAAssigner().assign(fig5)
        result = MonotonicRouter().route(assignment)
        svg = routing_to_svg(assignment, result)
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == fig5.net_count
        assert "max density" in svg

    def test_svg_file(self, fig5, tmp_path):
        assignment = DFAAssigner().assign(fig5)
        result = MonotonicRouter().route(assignment)
        path = tmp_path / "route.svg"
        save_routing_svg(assignment, result, path)
        assert path.read_text().endswith("</svg>")
