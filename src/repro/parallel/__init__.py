"""Deterministic fan-out for the reconstruction grid, sweeps and scraping.

Two layers:

* :mod:`repro.parallel.executor` — the raw :class:`ParallelMap` /
  :func:`pmap` fan-out contract: contiguous balanced chunks, ordered
  reduction, spawn-safe process pool, and a plain in-process loop when
  ``jobs=1`` or the machine has one usable CPU.
* :mod:`repro.parallel.grid` — :class:`GridSession`, which adds the
  engine routing the analysis drivers need: default-parameter tasks on
  the parent engine, one sibling engine per override set, and workers
  that rebuild their engines and return only results.

Pool/process construction anywhere else in ``src/repro`` is rejected by
the ``parallel-discipline`` lint rule.
"""

from repro.parallel.executor import (
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
