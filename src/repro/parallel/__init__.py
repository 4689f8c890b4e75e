"""Deterministic fan-out for the reconstruction grid, sweeps and scraping.

Two layers:

* :mod:`repro.parallel.executor` — the raw :class:`ParallelMap` /
  :func:`pmap` fan-out contract: contiguous balanced chunks, ordered
  reduction, spawn-safe process pool, ``jobs=1`` = plain serial loop.
* :mod:`repro.parallel.grid` — :class:`GridSession`, which adds the
  engine routing, geodesic-memo seeding and cache merge-back the analysis
  drivers need so a parallel run produces byte-identical artefacts *and*
  leaves the parent engine in the same warm state as a serial run.

Pool/process construction anywhere else in ``src/repro`` is rejected by
the ``parallel-discipline`` lint rule.
"""

from repro.parallel.executor import (
    BACKENDS,
    ContextSpec,
    ParallelMap,
    WorkerPoolError,
    chunk_spans,
    pmap,
    resolve_backend,
    usable_cpu_count,
)
from repro.parallel.grid import GridSession, GridTaskContext, grid_session

__all__ = [
    "BACKENDS",
    "ContextSpec",
    "GridSession",
    "GridTaskContext",
    "ParallelMap",
    "WorkerPoolError",
    "chunk_spans",
    "grid_session",
    "pmap",
    "resolve_backend",
    "usable_cpu_count",
]
