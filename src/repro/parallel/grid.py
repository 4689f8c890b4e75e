"""Grid fan-out sessions: engines + scrapers behind :class:`ParallelMap`.

The analysis drivers all fan out over the same two shapes of work item —
*(licensee × date)* cells of the reconstruction grid and *knob values* of
a parameter sweep — and they all need the same bookkeeping around the raw
executor: an engine per parameterisation, cache seeding on the way out,
and cache merge-back on the way home.  :class:`GridSession` packages that
bookkeeping once:

* **Engine routing.**  A task mapped with ``params=None`` runs against
  the session's parent engine; a task mapped with parameter overrides
  runs against a parameter-distinct sibling engine
  (:meth:`~repro.core.engine.CorridorEngine.with_params`), so snapshots
  computed under different knobs can never alias — the same discipline
  the serial sweeps enforce by building one engine per knob value.
* **jobs=1 is the pre-parallel code path.**  Serial sessions hand tasks
  the parent engine itself (default params) or a fresh, unseeded sibling
  per item (overrides) — exactly the engines the drivers constructed
  before this layer existed.
* **Seeding and pooling (jobs > 1).**  Siblings are pooled per override
  set and seeded with the parent's geodesic memo — memo entries are
  exact, parameter-independent Vincenty solutions, so seeding changes
  which work is *recomputed*, never any result.  Process workers
  additionally receive a full cache export (snapshots, routes, memo) of
  the engine their chunk runs against, replicating the parent's warm
  state at fan-out time.
* **Merge-back.**  Process workers return one
  :class:`~repro.core.engine.EngineCacheDelta` per engine they touched;
  the parent absorbs each into the matching engine (parent or pooled
  sibling) in chunk order, so a parallel run leaves the same warm cache
  state — and byte-identical artefacts — a serial run would.  Deltas
  (and the seed exports going the other way) carry temporal-index
  cursor state too: a worker handed a contiguous span of a date grid
  starts from the parent's snapshot cursors and evolves incrementally
  within its span, and the cursors it ends on come home with its delta.

Task functions are module-level callables ``fn(ctx, item)`` (picklable by
reference for the process backend); ``ctx`` is a :class:`GridTaskContext`
carrying the routed engine, a lazily-built scraper over the same
database, and the logical worker id.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence

from repro import obs
from repro.core.engine import CorridorEngine, EngineCacheDelta, EngineCacheExport
from repro.parallel.executor import ContextSpec, ParallelMap, resolve_backend

#: A normalised override set: None (parent params) or sorted key/value
#: pairs — hashable, picklable, and order-independent.
ParamsKey = tuple | None


def _normalise_overrides(overrides: Mapping | None) -> ParamsKey:
    if not overrides:
        return None
    return tuple(sorted(overrides.items()))


def _engine_cache_sizes(engine: CorridorEngine) -> dict:
    return {
        "snapshot_cache_size": engine._snapshots.maxsize,
        "route_cache_size": engine._routes.maxsize,
        "geodesic_memo_size": engine._geodesic_memo.maxsize,
    }


def _delta_is_empty(delta: EngineCacheDelta) -> bool:
    stats = delta.stats
    return not (
        delta.snapshots
        or delta.routes
        or delta.geodesic
        or stats.snapshot.lookups
        or stats.route.lookups
        or stats.geodesic.lookups
        or stats.snapshot_incremental
        or stats.snapshot_full
    )


class GridTaskContext:
    """What a grid task function receives: engine, scraper, worker id."""

    __slots__ = ("engine", "worker", "_host")

    def __init__(self, engine: CorridorEngine, worker: int, host) -> None:
        self.engine = engine
        self.worker = worker
        self._host = host

    @property
    def database(self):
        return self.engine.database

    @property
    def scraper(self):
        """A scraper over the session's database (built on first use)."""
        return self._host.scraper


class _WorkerState:
    """Per-worker-process state: engines and a scraper, rebuilt from
    picklable parts (spawn-safe — nothing is inherited from the parent).
    """

    def __init__(self, database, corridor, base_params, cache_sizes) -> None:
        self.database = database
        self.corridor = corridor
        self.base_params = base_params
        self.cache_sizes = cache_sizes
        self.worker = 0
        self._engines: dict[ParamsKey, CorridorEngine] = {}
        self._baselines: dict[ParamsKey, object] = {}
        self._seeds: dict[ParamsKey, EngineCacheExport] = {}
        self._scraper = None

    def begin_chunk(self, worker: int) -> None:
        self.worker = worker

    def install_seeds(self, seeds: dict[ParamsKey, EngineCacheExport]) -> None:
        """Adopt the parent's cache exports (run at each chunk start).

        Seeds arrive either as full exports or as tiny
        :class:`~repro.store.cachestore.StoreSeedRef` pointers resolved
        against the on-disk store here, in the worker (see
        :meth:`GridSession.map`).  Engines this worker already built
        (persistent pool, repeated map calls) are topped up with entries
        the parent learned since; installation counts no hits or misses,
        and baselines are advanced so topped-up entries are not shipped
        back as "learned".
        """
        self._seeds = {
            key: _resolve_seed(seed) for key, seed in seeds.items()
        }
        seeds = self._seeds
        for key, engine in self._engines.items():
            seed = seeds.get(key)
            if seed is not None:
                engine.seed_cache_state(seed)
                self._baselines[key] = engine.cache_baseline()

    def engine_for(self, key: ParamsKey) -> CorridorEngine:
        engine = self._engines.get(key)
        if engine is None:
            params = dict(self.base_params)
            if key is not None:
                params.update(dict(key))
            # Workers never attach to the persistent store: they are
            # seeded explicitly (below) from what the parent shipped.
            engine = CorridorEngine(
                self.database, self.corridor, **params, **self.cache_sizes
            )
            seed = self._seeds.get(key)
            if seed is not None:
                engine.seed_cache_state(seed)
            self._engines[key] = engine
            self._baselines[key] = engine.cache_baseline()
        return engine

    def collect_deltas(self) -> list[tuple[ParamsKey, EngineCacheDelta]]:
        """(override set, delta) per touched engine; baselines advance so
        a later chunk on this worker reports only genuinely new work."""
        deltas = []
        for key, engine in self._engines.items():
            delta = engine.collect_cache_delta(self._baselines[key])
            self._baselines[key] = engine.cache_baseline()
            if not _delta_is_empty(delta):
                deltas.append((key, delta))
        return deltas

    def collect_scrape(self):
        """Page counts since the last collect + this worker's parsed
        licenses, or None if no task touched the scraper."""
        if self._scraper is None:
            return None
        from repro.uls.scraper import _collect_scrape_delta

        return _collect_scrape_delta(self._scraper)

    @property
    def scraper(self):
        if self._scraper is None:
            from repro.uls.portal import UlsPortal
            from repro.uls.scraper import UlsScraper

            self._scraper = UlsScraper(UlsPortal(self.database))
        return self._scraper


def _build_worker_state(database, corridor, base_params, cache_sizes):
    return _WorkerState(database, corridor, base_params, cache_sizes)


def _resolve_seed(seed):
    """A shipped seed -> a cache export (or ``None`` for a cold start).

    Full exports pass through; :class:`~repro.store.cachestore
    .StoreSeedRef` pointers are resolved against the on-disk store in
    this (worker) process.  A missing or corrupt entry resolves to
    ``None`` — the worker starts cold, byte-identical either way.
    """
    if seed is None or isinstance(seed, EngineCacheExport):
        return seed
    return seed.load()


def _install_seeds(state: _WorkerState, seeds) -> None:
    state.install_seeds(seeds)


def _collect_worker_deltas(state: _WorkerState):
    return {"engines": state.collect_deltas(), "scrape": state.collect_scrape()}


def _grid_task(host, wrapped):
    """The executor-facing task: route an engine, build a context, call
    the driver's function.  ``host`` is the GridSession itself on the
    serial/inline backends and a :class:`_WorkerState` in workers."""
    fn, key, item = wrapped
    ctx = GridTaskContext(host.engine_for(key), host.worker, host)
    return fn(ctx, item)


class GridSession:
    """One fan-out session over one parent engine (and its database).

    Parameters
    ----------
    engine:
        The parent :class:`~repro.core.engine.CorridorEngine`.  Results
        and cache learning flow back into it (and into pooled siblings
        for parameter-override tasks).
    jobs / backend:
        Fan-out width and backend request (see
        :func:`repro.parallel.executor.resolve_backend`).
    scraper:
        Optional parent-side :class:`~repro.uls.scraper.UlsScraper` that
        serial/inline tasks should share (the funnel passes its own so
        ``jobs=1`` scrapes through exactly the pre-parallel object); by
        default one is built over the engine's database on first use.
    """

    def __init__(
        self,
        engine: CorridorEngine,
        jobs: int = 1,
        *,
        backend: str = "auto",
        scraper=None,
        scenario: str | None = None,
    ) -> None:
        self.engine = engine
        self.jobs = jobs
        #: Scenario name this session fans out for (observability only:
        #: worker seeding is keyed on the engine's database/corridor
        #: content, so two scenarios never share transplanted caches).
        self.scenario = scenario
        self.backend = resolve_backend(jobs, backend)
        self.worker = 0
        self._scraper = scraper
        self._siblings: dict[tuple, CorridorEngine] = {}
        self._pmap = ParallelMap(
            jobs,
            backend=backend,
            context=ContextSpec(
                _build_worker_state,
                (
                    engine.database,
                    engine.corridor,
                    engine.reconstructor.params(),
                    _engine_cache_sizes(engine),
                ),
            ),
            local_context=self,
        )

    # -- the executor's local-context protocol -------------------------

    def begin_chunk(self, worker: int) -> None:
        self.worker = worker

    def engine_for(self, key: ParamsKey) -> CorridorEngine:
        """The engine a task with override set ``key`` runs against.

        ``None`` routes to the parent engine.  Overrides route to a fresh
        unseeded engine per call when serial (the pre-parallel sweep code
        path: one private engine per knob value, discarded afterwards)
        and to a pooled, memo-seeded sibling otherwise.
        """
        if key is None:
            return self.engine
        if self.backend == "serial":
            return self.engine.with_params(**dict(key))
        sibling = self._siblings.get(key)
        if sibling is None:
            sibling = self.engine.with_params(**dict(key))
            sibling.seed_cache_state(
                self.engine.export_cache_state(geodesic_only=True),
                geodesic_only=True,
            )
            self._siblings[key] = sibling
        return sibling

    @property
    def scraper(self):
        if self._scraper is None:
            from repro.uls.portal import UlsPortal
            from repro.uls.scraper import UlsScraper

            self._scraper = UlsScraper(UlsPortal(self.engine.database))
        return self._scraper

    # -- the API -------------------------------------------------------

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
        order; worker cache deltas are absorbed in chunk order.
        """
        items = list(items)
        if callable(params):
            keys = [_normalise_overrides(params(item)) for item in items]
        else:
            key = _normalise_overrides(params)
            keys = [key] * len(items)
        wrapped = list(zip([fn] * len(items), keys, items))
        span_tags = dict(
            label=label, items=len(items), jobs=self.jobs, backend=self.backend
        )
        if self.scenario is not None:
            span_tags["scenario"] = self.scenario
        with obs.span("parallel.grid", **span_tags):
            if self.backend != "process":
                return self._pmap.map(_grid_task, wrapped)
            # Materialise (and thereby seed) every engine this call needs,
            # then ship each one's warm state to the workers.  With a
            # persistent store attached, the parent checkpoints once and
            # ships a content-addressed pointer instead of the full
            # (potentially multi-megabyte) export; parameter-override
            # siblings have no store entry and still ship in full.
            seeds = {}
            for key in dict.fromkeys(keys):
                engine = self.engine_for(key)
                store = engine.store
                if store is not None:
                    engine.checkpoint()
                    from repro.store import StoreSeedRef

                    seeds[key] = StoreSeedRef(
                        str(store.cache_dir), store.fingerprint_for(engine)
                    )
                else:
                    seeds[key] = engine.export_cache_state()
            return self._pmap.map(
                _grid_task,
                wrapped,
                setup=_install_seeds,
                setup_arg=seeds,
                finalize=_collect_worker_deltas,
                on_chunk_result=self._absorb_chunk,
            )

    def _absorb_chunk(self, worker: int, payload) -> None:
        """Fold one worker chunk's cache learning home (chunk order)."""
        deltas = payload["engines"]
        for key, delta in deltas:
            target = self.engine if key is None else self._siblings[key]
            target.absorb_cache_delta(delta)
        scrape = payload["scrape"]
        if scrape is not None:
            pages, cache = scrape
            self.scraper.absorb(pages, cache)
        if deltas:
            obs.count("parallel.merge.deltas", len(deltas))

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
    the CLI can share one pool (and one set of pooled siblings) across
    several commands; when no session is passed, a private one is opened
    and closed around the call.
    """
    if session is not None:
        yield session
        return
    own = GridSession(engine, jobs, scraper=scraper)
    try:
        yield own
    finally:
        own.close()
