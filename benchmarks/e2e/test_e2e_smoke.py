"""Smoke test of the end-to-end benchmark harness (outside the tier-1 suite).

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_smoke.py

Runs every workload at the smallest size (one rep of the command list,
1 s of load, no repeats), untraced and traced, and checks the result
against the schema in ``BENCHMARK.json``.  It also checks that a wrong
golden fails the run, that the run refuses a tree without the program,
and the self-time arithmetic.  About three minutes on 2 CPUs.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import breakdown  # noqa: E402
import workloads  # noqa: E402


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _copy_tree(dest: Path, with_source: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-3000:]
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0


def test_wrong_golden_fails_the_run(tmp_path):
    root = _copy_tree(tmp_path, with_source=True)
    golden = root / "benchmarks" / "e2e" / "golden" / "cli" / "table1.txt"
    golden.write_bytes(golden.read_bytes().replace(b"3.96172", b"3.96173"))
    proc = _bench(root, "--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    result = _result(proc)
    assert result["correct"] is False and result["failed"] == 1
    assert "table1: stdout differs from golden" in proc.stdout


def test_refuses_a_tree_without_the_program(tmp_path):
    root = _copy_tree(tmp_path, with_source=False)
    proc = _bench(root, "--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children_only():
    spans = [
        {"id": 1, "parent": 0, "rid": 1, "name": "cli.main", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "rid": 1, "name": "core.route", "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 2, "rid": 1, "name": "uls.columnar", "start": 2.0, "end": 3.0},
        {"id": 4, "parent": 1, "rid": 1, "name": "core.route", "start": 5.0, "end": 6.0},
    ]
    own, calls, stacks = breakdown.self_times(spans)
    assert own == {"cli.main": 6.0, "core.route": 3.0, "uls.columnar": 1.0}
    assert calls["core.route"] == 2
    assert stacks["cli.main;core.route;uls.columnar"] == 1.0
    assert sum(own.values()) == 10.0


def test_body_check_rejects_wrong_or_malformed_bodies():
    golden = {"/apa?scenario=paper2020": "0" * 64}
    check = workloads._body_check(golden)
    assert not check("/apa?scenario=paper2020", 200, b"{}")
    assert not check("/rankings?date=2015-01-01&scenario=paper2020", 500, b"")
    assert not check("/rankings?date=2015-01-01&scenario=paper2020", 200, b"[1]")
    assert not check("/rankings?date=2015-01-01&scenario=paper2020", 200, b'{"endpoint":"apa"}')
    assert check("/rankings?date=2015-01-01&scenario=paper2020", 200, b'{"endpoint":"rankings"}')
    assert check("/map?date=2015-01-01&scenario=paper2020", 200, b'{"type":"FeatureCollection"}')
