"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "New Line Networks" in out
        assert "3.96171" in out or "3.96172" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "CME-NASDAQ" in out
        assert "Webline Holdings" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Alternate path availability" in out
        assert "54%" in out

    def test_funnel(self, capsys):
        assert main(["funnel"]) == 0
        out = capsys.readouterr().out
        assert "candidate licensees: 57" in out
        assert "connected CME-NY4: 9" in out

    def test_timeline(self, capsys):
        assert main(["timeline"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out and "Fig 2" in out
        assert "National Tower Company" in out

    def test_timeline_with_custom_date_flag_parses(self, capsys):
        assert main(["table1", "--date", "2018-01-01"]) == 0
        out = capsys.readouterr().out
        assert "New Line Networks" in out
        # Pierce Broadband has no network in 2018.
        assert "Pierce Broadband" not in out

    def test_export(self, capsys, tmp_path):
        assert main(
            ["export", "New Line Networks", "--output-dir", str(tmp_path)]
        ) == 0
        written = {path.suffix for path in tmp_path.iterdir()}
        assert written == {".yaml", ".geojson", ".svg"}

    def test_export_unknown_licensee(self, capsys):
        assert main(["export", "No Such Net"]) == 2
        assert "unknown licensee" in capsys.readouterr().err

    def test_leo(self, capsys):
        assert main(["leo"]) == 0
        out = capsys.readouterr().out
        assert "LEO 550" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--jobs", "0"],
            ["timeline", "--jobs", "-2"],
            ["funnel", "--jobs", "two"],
            ["loadgen", "--clients", "0"],
        ],
    )
    def test_nonpositive_counts_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {argv[1]}" in err
        assert "Traceback" not in err


class TestExtensionCommands:
    def test_entities(self, capsys):
        assert main(["entities"]) == 0
        out = capsys.readouterr().out
        assert "tradewavegroup" in out
        assert "Midwest Relay Partners" in out

    def test_weather(self, capsys):
        assert main(["weather", "--storms", "6"]) == 0
        out = capsys.readouterr().out
        assert "storm p90" in out
        assert "Webline Holdings" in out

    def test_stability(self, capsys):
        assert main(["stability"]) == 0
        out = capsys.readouterr().out
        assert "Jefferson Microwave" in out
        assert "1.4" in out

    def test_design(self, capsys):
        assert main(["design", "--trunk-budget", "40"]) == 0
        out = capsys.readouterr().out
        assert "Designed CME-NY4 network" in out
        assert "APA" in out

    def test_design_infeasible(self, capsys):
        assert main(["design", "--trunk-budget", "6"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_diff(self, capsys):
        assert main(["diff", "2015-01-01", "2016-01-01"]) == 0
        out = capsys.readouterr().out
        assert "newly connected: New Line Networks" in out
        assert "grants" in out
