"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io import save_design


@pytest.fixture
def design_file(small_design, tmp_path):
    path = tmp_path / "design.json"
    save_design(small_design, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("table1", "table2", "fig6"):
            args = parser.parse_args([command])
            assert args.command == command


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "circuit1" in out and "448" in out

    def test_table2(self, capsys):
        assert main(["table2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "density DFA" in out

    def test_assign(self, design_file, capsys, tmp_path):
        output = tmp_path / "assign.json"
        assert main(["assign", design_file, "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "max density" in out
        payload = json.loads(output.read_text())
        assert payload["format"] == "repro-assignment/1"

    def test_assign_methods(self, design_file, capsys):
        for method in ("random", "ifa", "dfa"):
            assert main(["assign", design_file, "--method", method]) == 0
        capsys.readouterr()

    def test_route_with_svg(self, design_file, capsys, tmp_path):
        prefix = str(tmp_path / "route")
        assert main(["route", design_file, "--svg", prefix]) == 0
        out = capsys.readouterr().out
        assert "total routed length" in out
        assert (tmp_path / "route_bottom.svg").exists()

    def test_route_with_csv(self, design_file, capsys, tmp_path):
        prefix = str(tmp_path / "nets")
        assert main(["route", design_file, "--csv", prefix]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "nets_bottom.csv"
        assert csv_path.exists()
        assert "detour_ratio" in csv_path.read_text().splitlines()[0]

    def test_drc(self, design_file, capsys):
        assert main(["drc", design_file]) == 0
        out = capsys.readouterr().out
        assert "DRC" in out or "clean" in out

    def test_report_quick(self, capsys, tmp_path):
        output = tmp_path / "REPORT.md"
        assert main(["report", "--quick", "--output", str(output)]) == 0
        capsys.readouterr()
        text = output.read_text()
        assert "# Reproduction report" in text
        assert "Table 2" in text

    def test_report_creates_the_output_directory(self, capsys, tmp_path):
        output = tmp_path / "a" / "b" / "REPORT.md"
        assert main(["report", "--quick", "--output", str(output)]) == 0
        assert capsys.readouterr().out == f"report written to {output}\n"
        assert output.read_text().startswith("# Reproduction report")

    def test_unknown_method_rejected(self, design_file):
        with pytest.raises(SystemExit):
            main(["assign", design_file, "--method", "bogus"])


class TestBrokenPipe:
    """``repro <anything> | head`` must exit 0 — the fix lives in main(),
    so one cheap command exercises the shared handler for all of them."""

    class _ClosedPipe:
        """Stand-in stdout whose consumer has gone away."""

        def __init__(self, fail_on="write"):
            self.fail_on = fail_on

        def write(self, text):
            if self.fail_on == "write":
                raise BrokenPipeError(32, "Broken pipe")
            return len(text)

        def flush(self):
            if self.fail_on == "flush":
                raise BrokenPipeError(32, "Broken pipe")

    def test_pipe_broken_mid_write_exits_zero(self, monkeypatch):
        # Unbuffered stdout (PYTHONUNBUFFERED=1): the print itself raises.
        monkeypatch.setattr("sys.stdout", self._ClosedPipe(fail_on="write"))
        assert main(["table1"]) == 0

    def test_pipe_broken_at_final_flush_exits_zero(self, monkeypatch):
        # Block-buffered stdout (the default when piping): the failure only
        # surfaces when the buffer is flushed after the command returned.
        monkeypatch.setattr("sys.stdout", self._ClosedPipe(fail_on="flush"))
        assert main(["table1"]) == 0

    @pytest.mark.parametrize("unbuffered", ["0", "1"])
    def test_subprocess_reader_gone(self, unbuffered, tmp_path):
        import os
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        env["PYTHONUNBUFFERED"] = unbuffered
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "table1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
        )
        proc.stdout.close()  # the `| head` side hangs up immediately
        assert proc.wait(timeout=60) == 0
