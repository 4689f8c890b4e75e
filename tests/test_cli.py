"""Tests for the command-line interface and its process entry."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import textwrap
import tomllib
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent


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


#: Runs the real ``python -m repro`` entry with a counter on the collector
#: installed just before it, and reports at exit what the command did.
#: ``repro.cli`` is imported first, so only the command itself is counted.
_ENTRY_PROBE = textwrap.dedent(
    """
    import atexit, gc, json, runpy, sys
    import repro.cli

    starts = []
    gc.callbacks.append(
        lambda phase, info: starts.append(info["generation"])
        if phase == "start" else None
    )
    atexit.register(lambda: print("ENTRY " + json.dumps({
        "collections": starts,
        "enabled": gc.isenabled(),
        "frozen": gc.get_freeze_count(),
    }), file=sys.stderr))
    sys.argv = ["repro", *sys.argv[1:]]
    runpy.run_module("repro", run_name="__main__")
    """
)


def _run_entry(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, "-c", _ENTRY_PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


@pytest.fixture
def collector_off():
    """Run the test with the collector paused, as :func:`repro.cli.run`
    leaves it; restore it afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


class TestProcessEntry:
    def test_warm_command_never_collects_and_freezes_its_heap(self, tmp_path):
        argv = ("table1", "--cache-dir", str(tmp_path))
        cold = _run_entry(*argv)
        assert cold.returncode == 0, cold.stderr[-2000:]
        warm = _run_entry(*argv)
        assert warm.returncode == 0, warm.stderr[-2000:]
        assert warm.stdout == cold.stdout
        assert "New Line Networks" in warm.stdout
        line = next(
            line for line in warm.stderr.splitlines() if line.startswith("ENTRY ")
        )
        report = json.loads(line.removeprefix("ENTRY "))
        assert report["collections"] == []
        assert not report["enabled"]
        assert report["frozen"] > 0

    def test_entry_exits_with_the_command_status(self):
        result = _run_entry("design", "--trunk-budget", "6")
        assert result.returncode == 2
        assert "infeasible" in result.stderr

    def test_main_leaves_the_collector_as_it_finds_it(self, collector_off, capsys):
        assert main(["table1"]) == 0
        assert not gc.isenabled()
        gc.enable()
        assert main(["table1"]) == 0
        assert gc.isenabled()

    def test_serve_collects_its_garbage(self, collector_off, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(
            "repro.serve.run_server",
            lambda service, **kwargs: seen.append(gc.isenabled()),
        )
        assert main(["serve", "--port", "0"]) == 0
        assert seen == [True]

    def test_loadgen_server_collects_its_garbage(
        self, collector_off, monkeypatch, capsys
    ):
        seen = []

        class FakeServer:
            url = "http://127.0.0.1:9"

            def __init__(self, service):
                pass

            def __enter__(self):
                seen.append(gc.isenabled())
                return self

            def __exit__(self, *exc_info):
                return None

        monkeypatch.setattr("repro.serve.CorridorServer", FakeServer)
        monkeypatch.setattr(
            "repro.serve.run_load",
            lambda url, profile: SimpleNamespace(describe=lambda: "ok", errors=0),
        )
        assert main(["loadgen", "--requests", "1"]) == 0
        assert seen == [True]

    def test_console_script_is_the_process_entry(self):
        with open(ROOT / "pyproject.toml", "rb") as handle:
            project = tomllib.load(handle)["project"]
        assert project["scripts"]["hftnetview"] == "repro.cli:run"
