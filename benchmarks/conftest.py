"""Benchmark fixtures and output plumbing.

Each benchmark regenerates one paper table/figure, times it with
pytest-benchmark, and writes the regenerated rows/series (with the paper's
published values alongside) to ``benchmarks/output/``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.scenarios import resolve_scenario

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def scenario():
    return resolve_scenario("paper2020")


@pytest.fixture(scope="session")
def engine(scenario):
    """The scenario's shared CorridorEngine: snapshots survive across
    benchmarks, so later benchmarks measure warm-cache behaviour."""
    return scenario.engine()


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


def emit(output_dir: Path, name: str, text: str) -> None:
    """Write a regenerated artefact and echo it to the terminal."""
    path = output_dir / name
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n=== {name} ===\n{text}")


@pytest.fixture
def obs_metrics(request, output_dir):
    """Per-phase metrics captured alongside the benchmark's wall time.

    Everything the benchmark body runs is observed (span histograms,
    cache hit/miss counters); on teardown the registry snapshot lands in
    ``benchmarks/output/<test>.metrics.json`` next to the wall-time
    artefacts, so a perf regression can be attributed to a phase (stitch
    vs fiber vs routing) instead of re-profiled from scratch.  Note the
    numbers aggregate over *every* timed iteration pytest-benchmark runs.
    """
    with obs.capture() as cap:
        yield cap
    name = request.node.name.removeprefix("test_bench_").removeprefix("test_")
    path = output_dir / f"{name}.metrics.json"
    path.write_text(
        json.dumps(cap.registry.snapshot(), indent=2) + "\n",
        encoding="utf-8",
    )
