"""Grid fan-out sessions: engines + scrapers behind :class:`ParallelMap`.

The analysis drivers all fan out over the same two shapes of work item —
*(licensee × date)* cells of the reconstruction grid and *knob values* of
a parameter sweep — and they all need the same routing around the raw
executor.  :class:`GridSession` packages it once, and every driver maps
through a session at every width:

* **Engine routing.**  A task mapped with ``params=None`` runs against
  the session's parent engine; a task mapped with parameter overrides
  runs against one parameter-distinct sibling per override set
  (:meth:`~repro.core.engine.CorridorEngine.with_params`), built on first
  use and kept for the session, so snapshots computed under different
  knobs can never alias.
* **In-process is the plain loop.**  At ``jobs=1`` (or on a one-CPU
  machine) tasks run in order against the parent engine, its siblings
  and the caller's scraper — the objects a hand-written loop would use.
* **Cached work never ships.**  Before a pool map, the parent runs each
  default-parameter item as a *probe* under
  :func:`~repro.core.engine.cached_only` (and the scraper's
  :meth:`~repro.uls.scraper.UlsScraper.cached_only`): an item whose
  snapshot, route and scraper reads all hit finishes in the parent; one
  that would build or fetch a page, or that reads ``ctx.worker``, aborts
  without a trace and ships.  Override-set items always ship (their
  sibling is cold in the parent).  The pool is spawned only if
  something ships.
* **Workers return results, not caches.**  On a pool, each worker builds
  its own engine from the shipped ``(database, corridor, params)`` and a
  scraper over the same database, and sends home only task results plus
  its scraper's page counts.  The parent engine's caches see none of the
  workers' work; every result is a pure function of its item, so output
  is byte-identical at any width and wherever an item ran.

Task functions are module-level callables ``fn(ctx, item)`` (picklable by
reference for worker processes); ``ctx`` is a :class:`GridTaskContext`
carrying the routed engine, a lazily-built scraper over the same
database, and the logical worker id.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, Mapping, Sequence

from repro import obs
from repro.core.engine import (
    CacheMiss,
    CorridorEngine,
    cached_only,
    require_builds,
)
from repro.parallel.executor import ContextSpec, ParallelMap

#: A normalised override set: None (parent params) or sorted key/value
#: pairs — hashable, picklable, and order-independent.
ParamsKey = tuple | None


def _normalise_overrides(overrides: Mapping | None) -> ParamsKey:
    if not overrides:
        return None
    return tuple(sorted(overrides.items()))


class GridTaskContext:
    """What a grid task function receives: engine, scraper, worker id."""

    __slots__ = ("engine", "_worker", "_host")

    def __init__(self, engine: CorridorEngine, worker: int, host) -> None:
        self.engine = engine
        self._worker = worker
        self._host = host

    @property
    def database(self):
        return self.engine.database

    @property
    def worker(self) -> int:
        """The logical worker id.  It names where a task runs, so a
        parent-side probe that reads it aborts and the item ships."""
        require_builds("worker id")
        return self._worker

    @property
    def scraper(self):
        """A scraper over the session's database (built on first use).

        A parent-side probe reads the session's scraper under its
        ``cached_only``: reads it already holds are served, a page fetch
        aborts the probe and the item ships.  A probe that would build
        the scraper aborts at once, since a new scraper holds nothing.
        """
        if self._host._scraper is None:
            require_builds("scraper")
        return self._host.scraper


class _EngineRoutes:
    """One parent engine, its siblings per override set, and a scraper.

    The in-process context of a :class:`GridSession` and, rebuilt from
    picklable parts, the per-process context of every pool worker.
    """

    def __init__(self, engine: CorridorEngine, scraper=None) -> None:
        self.engine = engine
        self.worker = 0
        self._scraper = scraper
        self._siblings: dict[tuple, CorridorEngine] = {}

    def begin_chunk(self, worker: int) -> None:
        self.worker = worker

    def engine_for(self, key: ParamsKey) -> CorridorEngine:
        """The engine a task with override set ``key`` runs against:
        the parent for ``None``, else this session's sibling for ``key``."""
        if key is None:
            return self.engine
        sibling = self._siblings.get(key)
        if sibling is None:
            sibling = self.engine.with_params(**dict(key))
            self._siblings[key] = sibling
        return sibling

    @property
    def scraper(self):
        if self._scraper is None:
            from repro.uls.portal import UlsPortal
            from repro.uls.scraper import UlsScraper

            self._scraper = UlsScraper(UlsPortal(self.engine.database))
        return self._scraper


def _build_worker_state(database, corridor, params, cache_sizes):
    """A worker's context: a fresh engine over the shipped parts."""
    return _EngineRoutes(
        CorridorEngine(database, corridor, **params, **cache_sizes)
    )


def _collect_worker_pages(state: _EngineRoutes):
    """The worker scraper's page counts since the last chunk, or None if
    no task of this worker touched a scraper."""
    scraper = state._scraper
    if scraper is None:
        return None
    from repro.uls.scraper import ScrapeStats

    stats, scraper.stats = scraper.stats, ScrapeStats()
    return stats


def _grid_task(host, wrapped):
    """The executor-facing task: route an engine, build a context, call
    the driver's function.  ``host`` is the GridSession itself in-process
    and a worker's :class:`_EngineRoutes` on a pool."""
    fn, key, item = wrapped
    ctx = GridTaskContext(host.engine_for(key), host.worker, host)
    return fn(ctx, item)


class GridSession(_EngineRoutes):
    """One fan-out session over one parent engine (and its database).

    Parameters
    ----------
    engine:
        The parent :class:`~repro.core.engine.CorridorEngine`; default
        parameter tasks run against it in-process.
    jobs:
        Fan-out width (see :class:`~repro.parallel.executor.ParallelMap`
        for when a pool is used; :attr:`backend` says which mode ran).
    scraper:
        Optional parent-side :class:`~repro.uls.scraper.UlsScraper` that
        in-process tasks and parent-side probes share (the funnel passes
        its own, seeded from the store, so its page counts cover every
        stage); by default one is built over the engine's database on
        first use.  Pool workers' page counts are added to it after each
        map.
    """

    def __init__(
        self,
        engine: CorridorEngine,
        jobs: int = 1,
        *,
        scraper=None,
    ) -> None:
        super().__init__(engine, scraper)
        self.jobs = jobs
        self._pmap = ParallelMap(
            jobs,
            context=ContextSpec(
                _build_worker_state,
                (
                    engine.database,
                    engine.corridor,
                    engine.reconstructor.params(),
                    {
                        "snapshot_cache_size": engine._snapshots.maxsize,
                        "route_cache_size": engine._routes.maxsize,
                        "geodesic_memo_size": engine._geodesic_memo.maxsize,
                    },
                ),
            ),
            local_context=self,
        )

    @property
    def backend(self) -> str:
        """``"process"`` when a spawn pool runs the tasks, else ``"serial"``."""
        return self._pmap.backend

    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        params: Mapping | Callable | None = None,
        label: str = "grid",
    ) -> list:
        """``[fn(ctx, item) for item in items]`` with routed engines.

        ``fn`` must be a module-level callable taking
        ``(GridTaskContext, item)``.  ``params`` selects the engine per
        item: ``None`` (parent engine), a mapping of reconstruction
        overrides applied to every item, or a callable
        ``item -> mapping | None``.  Results come back in submission
        order.
        """
        items = list(items)
        if callable(params):
            keys = [_normalise_overrides(params(item)) for item in items]
        else:
            keys = [_normalise_overrides(params)] * len(items)
        wrapped = list(zip([fn] * len(items), keys, items))
        with obs.span(
            "parallel.grid",
            label=label,
            items=len(items),
            jobs=self.jobs,
            backend=self.backend,
        ) as grid_span:
            if self.backend == "serial":
                results, shipped = self._pmap.map(_grid_task, wrapped), []
            else:
                results, shipped = self._probe(wrapped)
            if shipped:
                fanned = self._pmap.map(
                    _grid_task,
                    [wrapped[index] for index in shipped],
                    finalize=_collect_worker_pages,
                    on_chunk_result=self._absorb_pages,
                )
                for index, result in zip(shipped, fanned):
                    results[index] = result
            parent = len(items) - len(shipped)
            obs.count("parallel.items.parent", parent)
            obs.count("parallel.items.shipped", len(shipped))
            grid_span.tag(parent=parent, shipped=len(shipped))
        return results

    def _probe(self, wrapped: list) -> tuple[list, list[int]]:
        """Run every item the parent's caches can answer, in order.

        Returns the results (``None`` where an item must ship) and the
        indices of the items to ship.  A probe that would build or fetch
        aborts without a trace; one that completes counts its hits on
        the parent engine and its pages on the parent scraper, exactly
        as the in-process loop would.
        """
        results: list = [None] * len(wrapped)
        shipped: list[int] = []
        for index, entry in enumerate(wrapped):
            if entry[1] is not None:
                shipped.append(index)
                continue
            scraper = self._scraper
            try:
                with (
                    nullcontext()
                    if scraper is None
                    else scraper.cached_only(CacheMiss)
                ), cached_only():
                    results[index] = _grid_task(self, entry)
            except CacheMiss:
                shipped.append(index)
        return results, shipped

    def _absorb_pages(self, worker: int, stats) -> None:
        if stats is not None:
            self.scraper.absorb(stats)

    def close(self) -> None:
        self._pmap.close()

    def __enter__(self) -> "GridSession":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False


@contextmanager
def grid_session(
    engine: CorridorEngine,
    jobs: int = 1,
    session: GridSession | None = None,
    *,
    scraper=None,
) -> Iterator[GridSession]:
    """A session for one driver call: the caller's, or a private one.

    Drivers accept both a ``jobs`` count and an optional ``session`` so
    one pool (and one set of siblings) can serve several driver calls;
    when no session is passed, a private one is opened and closed around
    the call.
    """
    if session is not None:
        yield session
        return
    own = GridSession(engine, jobs, scraper=scraper)
    try:
        yield own
    finally:
        own.close()
