"""The disabled path adds nothing: no output changes, no API changes.

Two regression nets around the obs layer's core guarantee:

* **Byte-identical results** — a subprocess running the timeline sweep
  with observation enabled (``--trace``/``--metrics``) produces stdout
  byte-identical to a plain run; traces and metrics only ever go to the
  trace file and stderr.
* **No API surface** — instrumentation wraps bodies; it never threads
  parameters through hot functions.  The signatures of every hot-path
  callable are pinned here so an instrumentation change that touches one
  fails loudly.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

PROJECT_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=PROJECT_ROOT,
    )


class TestBitIdenticalOutput:
    def test_timeline_stdout_identical_under_observation(self, tmp_path):
        plain = run_cli("timeline")
        observed = run_cli(
            "timeline", "--trace", str(tmp_path / "trace.jsonl"), "--metrics"
        )
        assert plain.returncode == observed.returncode == 0
        assert observed.stdout == plain.stdout  # byte-identical results
        assert "metrics summary:" in observed.stderr
        assert "metrics summary:" not in plain.stderr

    def test_table1_stdout_identical_under_observation(self, tmp_path):
        plain = run_cli("table1")
        observed = run_cli("table1", "--trace", str(tmp_path / "t.jsonl"))
        assert plain.returncode == observed.returncode == 0
        assert observed.stdout == plain.stdout


#: Hot-path callables -> their pinned signatures.  The obs layer's
#: disabled-path promise includes "no public API surface": spans wrap
#: function bodies, so instrumenting a function must never change its
#: signature.  Update this table only for a deliberate API change.
PINNED_SIGNATURES = {
    "repro.core.engine.CorridorEngine.snapshot": (
        "(self, licensee: 'str', on_date: 'dt.date') -> 'HftNetwork'"
    ),
    "repro.core.engine.CorridorEngine.snapshot_from_licenses": (
        "(self, licenses: 'Iterable[License]', on_date: 'dt.date', "
        "licensee: 'str | None' = None) -> 'HftNetwork'"
    ),
    "repro.core.engine.CorridorEngine.route": (
        "(self, licensee: 'str', on_date: 'dt.date', source: 'str', "
        "target: 'str') -> 'Route | None'"
    ),
    "repro.core.engine.CorridorEngine.timeline": (
        "(self, licensee: 'str', dates: 'Sequence[dt.date]', "
        "source: 'str | None' = None, target: 'str | None' = None) "
        "-> 'list[TimelinePoint]'"
    ),
    "repro.core.reconstruction.NetworkReconstructor.reconstruct": (
        "(self, licenses: 'Iterable[License]', on_date: 'dt.date', "
        "licensee: 'str | None' = None) -> 'HftNetwork'"
    ),
    "repro.core.columnar.reconstruct_columnar": (
        "(store: 'ColumnarLicenseStore', licensee: 'str', "
        "on_date: 'dt.date', corridor: 'CorridorSpec', "
        "latency_model: 'LatencyModel', stitch_tolerance_m: 'float', "
        "max_fiber_tail_m: 'float', fiber_mode: 'str') -> 'HftNetwork'"
    ),
    "repro.core.network.HftNetwork.lowest_latency_route": (
        "(self, source: 'str', target: 'str') -> 'Route | None'"
    ),
    "repro.geodesy.memo.GeodesicMemo.lookup": (
        "(self, key: 'tuple[float, float, float, float]') "
        "-> 'InverseSolution | None'"
    ),
    "repro.geodesy.memo.GeodesicMemo.store": (
        "(self, key: 'tuple[float, float, float, float]', "
        "solution: 'InverseSolution') -> 'None'"
    ),
}


def _resolve(dotted: str):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            module = __import__(module_name, fromlist=["_"])
        except ImportError:
            continue
        obj = module
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


class TestNoApiSurface:
    @pytest.mark.parametrize("dotted", sorted(PINNED_SIGNATURES))
    def test_hot_function_signature_unchanged(self, dotted):
        assert (
            str(inspect.signature(_resolve(dotted)))
            == PINNED_SIGNATURES[dotted]
        ), f"{dotted} signature changed (obs must not add parameters)"

    def test_noop_span_is_a_singleton(self):
        from repro import obs
        from repro.obs.spans import _NOOP

        assert obs.span("x") is obs.span("y") is _NOOP
