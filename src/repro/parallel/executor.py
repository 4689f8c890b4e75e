"""The one pool in the repository: :func:`pmap`, an ordered thread-backed map.

``pmap(fn, items, jobs)`` returns exactly ``[fn(item) for item in items]``
with up to ``jobs`` calls in flight at once.  The calls run on threads of
this process, so the pool pays only where the work waits on I/O: the load
generator's HTTP clients (:mod:`repro.serve.loadgen`).  CPU-bound grids
are plain loops in the analysis drivers (DESIGN.md §9).

Each call runs under ``obs.span("parallel.task", index=...)`` and counts
``parallel.tasks``; the whole map runs under ``obs.span("parallel.map")``.
The obs state is thread-safe, so the pool threads' spans and counters land
in the caller's session.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro import obs


def _run_task(fn: Callable, index: int, item: object) -> object:
    with obs.span("parallel.task", index=index):
        obs.count("parallel.tasks")
        return fn(item)


def pmap(fn: Callable, items: Sequence, jobs: int = 1) -> list:
    """``[fn(item) for item in items]``, up to ``jobs`` calls at a time.

    Results come back in submission order whatever order the calls end
    in; the first call to raise re-raises here once the others finish.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    with obs.span("parallel.map", jobs=jobs, items=len(items)):
        if jobs == 1 or len(items) < 2:
            return [_run_task(fn, index, item) for index, item in enumerate(items)]
        # Imported here: only a multi-client load run starts threads, so
        # no other command pays for the import.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            return list(
                pool.map(_run_task, [fn] * len(items), range(len(items)), items)
            )
