"""``--jobs N`` is accepted and changes nothing: not a byte of output.

Each command runs in a fresh subprocess (its own interpreter, its own
process-cached scenario) at ``--jobs 1`` and ``--jobs 4``; stdout must be
byte-identical.  ``scripts/check.sh`` enforces the same gate with
``diff`` so CI catches regressions even when this file is skipped.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def _run(command: str, jobs: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", command, "--jobs", str(jobs)],
        cwd=REPO_ROOT,
        env=_env(),
        capture_output=True,
        timeout=600,
    )


@pytest.mark.parametrize("command", ["timeline", "table1", "funnel"])
def test_jobs_flag_output_is_byte_identical(command):
    serial = _run(command, 1)
    parallel = _run(command, 4)
    assert serial.returncode == 0, serial.stderr.decode()
    assert parallel.returncode == 0, parallel.stderr.decode()
    assert serial.stdout == parallel.stdout
    assert serial.stdout  # the command actually printed its report
