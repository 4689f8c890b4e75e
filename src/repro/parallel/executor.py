"""The deterministic fan-out executor (:class:`ParallelMap` / :func:`pmap`).

Every parallel code path in this repository runs through here — the lint
rule ``parallel-discipline`` confines pool construction to this package —
and both execution modes obey one contract:

* **Ordered reduction.**  ``map`` returns exactly
  ``[fn(item) for item in items]``.  On a pool, items are split into
  contiguous, balanced chunks; the chunk index is the logical *worker
  id*; results are reassembled in submission order regardless of
  completion order.
* **In-process when fan-out cannot help.**  With ``jobs == 1``, or on a
  machine with one usable CPU, the items run in a plain in-process loop,
  in order, against the caller's own objects (``backend == "serial"``).
* **Spawn safety.**  Otherwise a spawn-safe
  :class:`concurrent.futures.ProcessPoolExecutor` runs one task per chunk
  and is reused across ``map`` calls (``backend == "process"``).  Worker
  context is rebuilt in each worker from a picklable :class:`ContextSpec`
  (a module-level factory plus arguments), never captured from the
  parent by forking.  The parent pickles the spec once to a temporary
  file and each worker is spawned with only that file's path, so the
  spawn payload stays far below a pipe buffer.  A worker that dies at
  start-up (before reading its payload) therefore cannot block the
  parent's spawn write; the pool breaks instead and ``map`` raises
  :class:`WorkerPoolError`.

Observability: each task runs under an ``obs.span("parallel.task", ...)``
carrying its worker id and submission index.  Process workers run their
chunk under an isolated capture and ship the resulting metrics-registry
snapshot home, where it is absorbed into the active session registry
(:meth:`repro.obs.MetricsRegistry.absorb`).  Worker span *records* are
process-local and are not re-emitted to parent trace sinks; their
aggregated timings arrive via the registry merge (DESIGN.md §9).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs


def usable_cpu_count() -> int:
    """CPUs this process may actually schedule on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_backend(jobs: int) -> str:
    """How ``jobs`` workers run on this machine.

    ``"process"`` (a spawn pool) when ``jobs > 1`` and a second usable
    CPU exists; ``"serial"`` (the in-process loop) otherwise.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return "process" if jobs > 1 and usable_cpu_count() > 1 else "serial"


def chunk_spans(n_items: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous balanced ``[start, stop)`` spans, one per worker.

    The first ``n_items % jobs`` chunks get the extra item; empty chunks
    are dropped, so worker ids are dense even when items < jobs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    size, extra = divmod(n_items, jobs)
    spans = []
    start = 0
    for worker in range(jobs):
        stop = start + size + (1 if worker < extra else 0)
        if stop > start:
            spans.append((start, stop))
        start = stop
    return spans


@dataclass(frozen=True)
class ContextSpec:
    """How a worker rebuilds its per-process context.

    ``factory`` must be a module-level callable (picklable by reference);
    ``args`` its pickled arguments.  Each worker process calls
    ``factory(*args)`` exactly once, at pool initialisation, and every
    chunk that worker runs receives the resulting object as ``ctx``.

    If the context object defines ``begin_chunk(worker_id)``, it is
    invoked at the start of every chunk (in workers, and once with
    worker id 0 for an in-process run) so per-chunk state — e.g. which
    logical worker a grid task is running as — is available to tasks.
    """

    factory: Callable[..., object]
    args: tuple = ()

    def build(self) -> object:
        return self.factory(*self.args)


class WorkerPoolError(RuntimeError):
    """A worker process exited before returning its chunk's results,
    e.g. because it died at start-up."""


# -- worker-process plumbing (process backend only) ---------------------

_WORKER_CONTEXT: object | None = None


def _write_context(spec: ContextSpec) -> str:
    """Pickle ``spec`` once to a private temporary file; returns its path."""
    fd, path = tempfile.mkstemp(prefix="repro-context-", suffix=".pickle")
    with os.fdopen(fd, "wb") as handle:
        pickle.dump(spec, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def _worker_init(context_path: str | None) -> None:
    global _WORKER_CONTEXT
    if context_path is None:
        _WORKER_CONTEXT = None
        return
    with open(context_path, "rb") as handle:
        spec = pickle.load(handle)
    _WORKER_CONTEXT = spec.build()


def _run_task(fn, ctx, has_context, worker, index, item):
    with obs.span("parallel.task", worker=worker, index=index):
        obs.count("parallel.tasks")
        return fn(ctx, item) if has_context else fn(item)


def _run_chunk_local(fn, ctx, has_context, worker, pairs):
    if ctx is not None and hasattr(ctx, "begin_chunk"):
        ctx.begin_chunk(worker)
    return [
        _run_task(fn, ctx, has_context, worker, index, item)
        for index, item in pairs
    ]


def _run_chunk_in_worker(fn, has_context, worker, pairs, finalize, observe):
    """One chunk, executed in a worker process.

    Returns ``(results, finalize_result, registry_snapshot)``; the parent
    absorbs the latter two in chunk order (deterministic merge).
    """
    ctx = _WORKER_CONTEXT
    if observe:
        with obs.capture() as cap:
            results = _run_chunk_local(fn, ctx, has_context, worker, pairs)
            extra = finalize(ctx) if finalize is not None else None
        return results, extra, cap.registry.snapshot()
    results = _run_chunk_local(fn, ctx, has_context, worker, pairs)
    extra = finalize(ctx) if finalize is not None else None
    return results, extra, None


class ParallelMap:
    """A reusable fan-out executor with a fixed width and context.

    Parameters
    ----------
    jobs:
        Worker count (``>= 1``).  ``1``, or a machine with one usable
        CPU, runs every item in-process; otherwise a spawn pool of
        ``jobs`` workers does.  :attr:`backend` names the mode chosen
        (see :func:`resolve_backend`).
    context:
        Optional :class:`ContextSpec`; when given, tasks are invoked as
        ``fn(ctx, item)`` (``fn(item)`` otherwise).
    local_context:
        The context object used in-process instead of building one from
        ``context`` — callers whose parent-side state *is* the context (a
        :class:`~repro.parallel.grid.GridSession`) pass themselves here so
        an in-process run touches exactly the caller's own objects.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        context: ContextSpec | None = None,
        local_context: object | None = None,
    ) -> None:
        self.jobs = jobs
        self.backend = resolve_backend(jobs)
        self._context = context
        self._local_context = local_context
        self._pool: ProcessPoolExecutor | None = None
        self._context_path: str | None = None

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # The one place in the repository a process pool is built
            # (enforced by the parallel-discipline lint rule): spawn
            # context, context rebuilt per worker from the picklable spec,
            # which travels as a file path (see the module docstring).
            if self._context is not None:
                self._context_path = _write_context(self._context)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_worker_init,
                initargs=(self._context_path,),
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (no-op for in-process runs)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._context_path is not None:
            os.unlink(self._context_path)
            self._context_path = None

    def __enter__(self) -> "ParallelMap":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False

    def _local(self) -> object | None:
        if self._local_context is None and self._context is not None:
            # Built once and kept: repeated in-process map() calls reuse
            # one context, as one worker process would.
            self._local_context = self._context.build()
        return self._local_context

    # -- the API -------------------------------------------------------

    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        finalize: Callable | None = None,
        on_chunk_result: Callable | None = None,
    ) -> list:
        """``[fn(item) for item in items]``, fanned out and re-ordered.

        On a pool, ``finalize(ctx)`` runs in the worker once per chunk
        after its tasks, and its return value is handed to
        ``on_chunk_result(worker, value)`` in chunk order back in the
        parent — how worker-side tallies travel home.  Both must be
        module-level callables.  An in-process run skips them: its tasks
        already ran against the caller's own context.
        """
        items = list(items)
        has_context = self._context is not None or self._local_context is not None
        with obs.span(
            "parallel.map",
            jobs=self.jobs,
            backend=self.backend,
            items=len(items),
        ):
            if self.backend == "serial":
                return _run_chunk_local(
                    fn, self._local(), has_context, 0, list(enumerate(items))
                )
            return self._map_process(
                fn, items, has_context, finalize, on_chunk_result
            )

    def _map_process(
        self, fn, items, has_context, finalize, on_chunk_result
    ) -> list:
        observe = obs.is_enabled()
        pool = self._ensure_pool()
        futures = []
        for worker, (start, stop) in enumerate(chunk_spans(len(items), self.jobs)):
            pairs = [(index, items[index]) for index in range(start, stop)]
            futures.append(
                pool.submit(
                    _run_chunk_in_worker,
                    fn, has_context, worker, pairs, finalize, observe,
                )
            )
        results: list = []
        # Collect in submission (= chunk) order: the reduction is ordered
        # no matter which worker finishes first, and chunk extras /
        # registry snapshots merge in the same deterministic order.
        for worker, future in enumerate(futures):
            try:
                chunk_results, extra, registry_snapshot = future.result()
            except BrokenProcessPool as error:
                raise WorkerPoolError(
                    f"a worker process exited before returning chunk {worker} "
                    f"of {len(futures)} ({error})"
                ) from None
            results.extend(chunk_results)
            if registry_snapshot is not None and obs.is_enabled():
                registry = obs.get_registry()
                if registry is not None:
                    registry.absorb(registry_snapshot)
            if on_chunk_result is not None:
                on_chunk_result(worker, extra)
        return results


def pmap(
    fn: Callable,
    items: Sequence,
    jobs: int = 1,
    *,
    context: ContextSpec | None = None,
) -> list:
    """One-shot :class:`ParallelMap`: ``[fn(item) for item in items]``.

    The convenience entry point for stateless fan-out; drivers that reuse
    a pool hold a :class:`ParallelMap` (or a
    :class:`~repro.parallel.grid.GridSession`) instead.
    """
    with ParallelMap(jobs, context=context) as executor:
        return executor.map(fn, items)
