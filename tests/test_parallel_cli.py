"""End-to-end determinism: ``--jobs N`` must not change a byte of output.

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


#: A launcher with no ``__main__`` guard whose re-import dies: spawned
#: workers re-import the parent's main script, so every worker exits at
#: start-up, before it reads its spawn payload.  The process backend is
#: forced so the spawn path runs on a one-CPU host too.
_DYING_WORKER_LAUNCHER = """\
import sys
if __name__ == "__mp_main__":
    sys.exit(3)
from repro.parallel import executor
executor.usable_cpu_count = lambda: 2
from repro.cli import main
sys.exit(main(["timeline", "--step", "weekly", "--jobs", "2"]))
"""


def test_worker_dying_at_startup_fails_fast(tmp_path):
    launcher = tmp_path / "launch.py"
    launcher.write_text(_DYING_WORKER_LAUNCHER)
    # The hard timeout is the regression check: before the spawn payload
    # was kept small, the parent blocked forever writing it to the dead
    # worker's pipe.
    result = subprocess.run(
        [sys.executable, str(launcher)],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        timeout=60,
    )
    stderr = result.stderr.decode()
    assert result.returncode == 1, stderr
    assert stderr.startswith("parallel error: a worker process exited"), stderr
    assert "Traceback" not in stderr
    assert result.stdout == b""
