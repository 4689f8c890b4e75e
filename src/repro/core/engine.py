"""The corridor engine: a caching query layer over reconstruction.

Every paper artefact (tables, figures, funnel, ablations, entities, flux,
monitoring) answers queries of the same shape — "this licensee's network on
this date", "the lowest-latency route on this date" — against topology that
changes only when a license is granted, cancelled or terminated.  The
paper's tool (:class:`~repro.core.reconstruction.NetworkReconstructor`)
recomputes stitching, fiber attachment and routing from scratch on every
call; across a timeline or a ranking sweep that repeats nearly all of the
work.

:class:`CorridorEngine` is the memoising layer the workload shape calls
for.  It owns one :class:`~repro.uls.database.UlsDatabase`, one
:class:`~repro.core.corridor.CorridorSpec`, one set of reconstruction
parameters, and four caches:

* a **snapshot cache** keyed on ``(licensee, active-license fingerprint,
  reconstruction params)`` — two dates on which a licensee's active
  license set is identical share one stitched network;
* a **geodesic memo** (:class:`repro.geodesy.memo.GeodesicMemo`) installed
  around every reconstruction, converting repeated Vincenty inverse
  solutions — the hot path under stitching, fiber attachment and link
  measurement — into lookups;
* a **route cache** for ``lowest_latency_route(source, target)`` per
  cached snapshot;
* an **APA cache** for the alternate path availability of each cached
  route (:mod:`repro.core.apa`), per snapshot, endpoint pair and slack.

Cached results are *bit-identical* to cache-free reconstruction (property-
tested in ``tests/test_engine.py``): the memo stores exact solutions, the
snapshot cache stores the exact network object, and APA is computed from
the cached network and route.  Reconstruction parameters are part of
every snapshot key, so engines built with different stitch tolerances,
fiber modes or latency models can never alias — and the engine itself is
parameter-immutable: build one engine per parameterisation
(see :meth:`repro.synth.scenario.Scenario.engine`).

The :class:`NetworkReconstructor` holds the corridor and parameters and
runs the one cache-free reconstruction path, the columnar kernel; the
engine wraps it and never changes its semantics.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import pickle
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro import obs
from repro.constants import APA_SLACK_FACTOR
from repro.core.apa import alternate_path_availability
from repro.core.corridor import CorridorSpec
from repro.core.latency import LatencyModel
from repro.core.network import HftNetwork, Route
from repro.core.reconstruction import NetworkReconstructor, network_name
from repro.core.timeline import TimelinePoint
from repro.geodesy.memo import DEFAULT_MEMO_SIZE, GeodesicMemo, use_memo
from repro.uls.database import UlsDatabase
from repro.uls.records import License

#: Default bound on cached snapshots.  A full corridor scenario has ~60
#: licensees × a handful of distinct active sets each; 512 covers every
#: analysis driver without eviction while bounding worst-case memory.
DEFAULT_SNAPSHOT_CACHE_SIZE = 512

#: Default bound on cached routes ((snapshot, source, target) triples),
#: and on cached APA values ((snapshot, source, target, slack)).
DEFAULT_ROUTE_CACHE_SIZE = 4096

_MISSING = object()


def _license_content_digest(licenses: Iterable[License]) -> str:
    """A stable digest of full license *content*, not just ids.

    Keys :meth:`CorridorEngine.snapshot_from_licenses` entries for
    record sets that are not verbatim database rows (scraped licenses
    differ in the low float bits), so they can never alias a
    database-derived snapshot.  Dataclass reprs spell out every field
    deterministically; sorting by id makes the digest order-insensitive.
    """
    hasher = hashlib.sha256()
    for lic in sorted(licenses, key=lambda item: item.license_id):
        hasher.update(repr(lic).encode("utf-8"))
    return hasher.hexdigest()


@dataclass(frozen=True, slots=True)
class CacheCounter:
    """Hit/miss/eviction counts for one cache.

    ``corrupt`` counts store-seeded values that failed to decode (each
    was rebuilt, and also counts as a miss).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True, slots=True)
class CacheStats:
    """A point-in-time snapshot of all four engine caches.

    ``index_events`` is the temporal index's event count over the
    engine's database.
    """

    snapshot: CacheCounter
    route: CacheCounter
    apa: CacheCounter
    geodesic: CacheCounter
    index_events: int = 0

    def describe(self) -> str:
        """A short human-readable summary (the CLI's ``--cache-stats``)."""
        lines = ["engine cache stats:"]
        for name, counter in (
            ("snapshot", self.snapshot),
            ("route", self.route),
            ("apa", self.apa),
            ("geodesic", self.geodesic),
        ):
            lines.append(
                f"  {name:9s} hits={counter.hits}  misses={counter.misses}  "
                f"evictions={counter.evictions}  entries={counter.size}  "
                f"hit-rate={counter.hit_rate:.1%}"
                + (f"  corrupt={counter.corrupt}" if counter.corrupt else "")
            )
        lines.append(f"  temporal index: events={self.index_events}")
        return "\n".join(lines)


class EncodedValue:
    """A cache value still in its pickled form, decoded on first hit.

    The persistent store seeds engines with these placeholders, so a
    command pays to unpickle only the snapshots, routes and APA values it
    reads.  A value never decoded is exported with its original bytes.
    ``crc`` (CRC-32 of ``data``) is checked before unpickling, so a
    flipped byte is a detected failure, never a silently different value.
    """

    __slots__ = ("data", "crc")

    def __init__(self, data: bytes, crc: int) -> None:
        self.data = data
        self.crc = crc

    @classmethod
    def encode(cls, value: object) -> "EncodedValue":
        data = pickle.dumps(value, protocol=4)
        return cls(data, zlib.crc32(data))

    def decode(self) -> object:
        """The value; raises on a checksum mismatch or a bad pickle."""
        if zlib.crc32(self.data) != self.crc:
            raise ValueError("encoded cache value fails its checksum")
        return pickle.loads(self.data)


class _LruCache:
    """A bounded LRU mapping with hit/miss/eviction accounting.

    ``dirty`` records whether the cache holds anything its last
    :meth:`seed` source lacks: a :meth:`put` sets it, and so does a
    seeded :class:`EncodedValue` that fails to decode (counted in
    ``corrupt`` and served as a miss, so the caller rebuilds it).
    Every hit also counts the ``hit_name`` obs counter.
    """

    def __init__(self, maxsize: int, hit_name: str) -> None:
        if maxsize <= 0:
            raise ValueError("cache size must be positive")
        self.maxsize = maxsize
        self.hit_name = hit_name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        self.dirty = False
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, default: object = None) -> object:
        """The value for ``key``, or ``default`` (a counted miss)."""
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            self.misses += 1
            return default
        if type(entry) is EncodedValue:
            try:
                entry = entry.decode()
            except Exception:  # lint: disable=broad-except (unpickling corrupt bytes can raise nearly anything; a bad value is dropped and rebuilt, never a crash)
                del self._entries[key]
                self.corrupt += 1
                self.dirty = True
                self.misses += 1
                obs.count("engine.value.corrupt")
                return default
            self._entries[key] = entry
        self._entries.move_to_end(key)
        self.hits += 1
        obs.count(self.hit_name)
        return entry

    def put(self, key: Hashable, value: object) -> None:
        self.dirty = True
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        self._insert(key, value)

    def _insert(self, key: Hashable, value: object) -> None:
        if len(self._entries) >= self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value

    def seed(self, pairs: Iterable[tuple[Hashable, object]]) -> None:
        """Install ``pairs`` without counting a lookup or a put.

        Keys already cached keep their (possibly decoded) value.
        Afterwards the cache is dirty iff it holds a key ``pairs`` lacks.
        """
        extra = set(self._entries)
        for key, value in pairs:
            extra.discard(key)
            if key not in self._entries:
                self._insert(key, value)
        self.dirty = bool(extra)

    def items(self) -> tuple[tuple[Hashable, object], ...]:
        """Every cached (key, value) pair, LRU order (oldest first).

        Values never looked up since seeding are still
        :class:`EncodedValue` placeholders.
        """
        return tuple(self._entries.items())

    def counter(self) -> CacheCounter:
        return CacheCounter(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            corrupt=self.corrupt,
        )


@dataclass(frozen=True)
class EngineCacheExport:
    """A picklable copy of an engine's cache *contents* (no counters).

    Produced by :meth:`CorridorEngine.export_cache_state` and installed
    with :meth:`CorridorEngine.seed_cache_state`: the persistent store
    (:mod:`repro.store`) persists one of these per (database, params) so
    a later process starts from this one's warm state.  Every entry is
    exact (memoised Vincenty solutions, the cached network/route objects
    themselves, the APA fractions computed from them), so seeding never
    perturbs results.  Snapshot, route and APA values may be
    :class:`EncodedValue` placeholders, decoded on first hit.
    """

    params_key: tuple
    snapshots: tuple[tuple[Hashable, HftNetwork], ...]
    routes: tuple[tuple[Hashable, Route | None], ...]
    apa: tuple[tuple[Hashable, float], ...]
    geodesic: tuple[tuple[tuple, tuple], ...]


class CorridorEngine:
    """Snapshot/route cache layer over one database + one parameter set.

    Parameters
    ----------
    database:
        The license records every query runs against.
    corridor:
        The corridor's data centers.
    latency_model / stitch_tolerance_m / max_fiber_tail_m / fiber_mode:
        Reconstruction parameters, forwarded to the kernel
        :class:`NetworkReconstructor`.  All parameters participate in
        every cache key, so differently-parameterised engines never share
        entries.
    snapshot_cache_size / route_cache_size / geodesic_memo_size:
        Bounds on the caches (LRU eviction); ``route_cache_size`` bounds
        the route cache and the APA cache alike.

    An engine starts without a persistent store (``store`` is ``None``);
    :meth:`repro.store.CacheStore.attach` is the only way to give it one.
    Attaching loads the store's matching entry, and :meth:`checkpoint`
    persists the caches back when they hold anything the entry lacks
    (:attr:`dirty`).  Only a scenario's default-parameter engine
    is ever attached (through :func:`repro.scenarios.resolve_scenario`);
    parameter engines (:meth:`with_params`, ``Scenario.engine(**params)``)
    never persist.
    """

    def __init__(
        self,
        database: UlsDatabase,
        corridor: CorridorSpec | None = None,
        *,
        latency_model: LatencyModel | None = None,
        stitch_tolerance_m: float | None = None,
        max_fiber_tail_m: float | None = None,
        fiber_mode: str | None = None,
        snapshot_cache_size: int = DEFAULT_SNAPSHOT_CACHE_SIZE,
        route_cache_size: int = DEFAULT_ROUTE_CACHE_SIZE,
        geodesic_memo_size: int = DEFAULT_MEMO_SIZE,
    ) -> None:
        if corridor is None:
            raise ValueError("pass a corridor")
        kwargs: dict = {}
        if latency_model is not None:
            kwargs["latency_model"] = latency_model
        if stitch_tolerance_m is not None:
            kwargs["stitch_tolerance_m"] = stitch_tolerance_m
        if max_fiber_tail_m is not None:
            kwargs["max_fiber_tail_m"] = max_fiber_tail_m
        if fiber_mode is not None:
            kwargs["fiber_mode"] = fiber_mode
        self.database = database
        self.reconstructor = NetworkReconstructor(corridor, **kwargs)
        self.corridor = corridor
        self._snapshots = _LruCache(snapshot_cache_size, "engine.snapshot.hit")
        self._routes = _LruCache(route_cache_size, "engine.route.hit")
        self._apa = _LruCache(route_cache_size, "engine.apa.hit")
        self._geodesic_memo = GeodesicMemo(geodesic_memo_size)
        # The engine's caches (LRU dicts and their counters) are not
        # internally synchronised; concurrent callers serialise through
        # this lock (see repro.serve.facade.EngineFacade).  Engines are
        # never pickled, so the lock never crosses a process boundary.
        self._lock = threading.RLock()
        #: The attached :class:`repro.store.CacheStore`, set and cleared
        #: only by the store's ``attach``/``detach_all``.
        self.store = None
    def locked(self) -> threading.RLock:
        """The engine's reentrant guard, for ``with engine.locked():``.

        Every mutation of engine state (snapshot resolution, route
        lookups, cache seeding) by concurrent callers must run under
        this lock; single-threaded drivers may ignore it.
        """
        return self._lock

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------

    @property
    def params_key(self) -> tuple:
        """The reconstruction-parameter component of every cache key."""
        kernel = self.reconstructor
        model = kernel.latency_model
        return (
            kernel.stitch_tolerance_m,
            kernel.max_fiber_tail_m,
            kernel.fiber_mode,
            model.microwave_speed,
            model.fiber_speed,
            model.per_tower_overhead_s,
        )

    def active_fingerprint(
        self, licensee: str, on_date: dt.date
    ) -> frozenset[str]:
        """The ids of ``licensee``'s licenses active on ``on_date``.

        This is the invariant the snapshot cache exploits: the stitched
        network is a pure function of (active license set, parameters), so
        any two dates with equal fingerprints share a snapshot.

        The set comes from the database's :class:`~repro.uls.index
        .TemporalIndex`: O(log n) warm, and the *same* frozenset object
        per constant-active-set interval, so key hashing stays cheap.
        """
        return self.database.temporal_index(licensee).active_ids_at(on_date)

    def snapshot_key(self, licensee: str, on_date: dt.date) -> tuple:
        """The snapshot-cache key for (licensee, date) under this engine.

        Every query builds its key here.  Pure: the fingerprint is the
        temporal index's interned frozenset, so dates with equal active
        sets get equal (cheaply hashed) keys whatever order they are
        queried in.
        """
        return (
            licensee,
            self.active_fingerprint(licensee, on_date),
            self.params_key,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def snapshot(self, licensee: str, on_date: dt.date) -> HftNetwork:
        """``licensee``'s network on ``on_date`` (cached by active set).

        Equivalent to ``NetworkReconstructor.reconstruct_licensee`` — the
        returned network always carries the requested ``as_of`` date, even
        when its topology was stitched for an earlier query.
        """
        with obs.span("engine.snapshot", licensee=licensee):
            network = self._snapshot_for_key(
                self.snapshot_key(licensee, on_date), licensee, on_date
            )
        return network.with_as_of(on_date)

    def _snapshot_for_key(
        self, key: tuple, licensee: str, on_date: dt.date
    ) -> HftNetwork:
        """The cached network for a resolved key (``as_of`` = first query's
        date)."""
        network = self._snapshots.get(key)
        if network is None:
            obs.count("engine.snapshot.miss")
            # The license store is fetched (and, on generation change,
            # rebuilt) *before* the memoised window opens: store
            # construction is a per-generation cost with its own
            # ``kernel.columnar.store.build`` span, not part of any single
            # snapshot's build time.
            store = self.database.columnar_store()
            network = self._reconstruct_memoised(
                lambda: self.reconstructor.reconstruct_from_store(
                    store, licensee, on_date
                ),
                licensee,
            )
            self._snapshots.put(key, network)
        return network

    def _reconstruct_memoised(self, build, licensee: str) -> HftNetwork:
        """Run one reconstruction under the engine's geodesic memo.

        The ``geodesy.memo`` span covers the window the memo is installed
        for; its hit/miss deltas (this reconstruction only) are tagged on
        the span and accumulated into the session counters.
        """
        memo = self._geodesic_memo
        hits_before, misses_before = memo.hits, memo.misses
        with obs.span("engine.snapshot.build", licensee=licensee):
            with obs.span("geodesy.memo", licensee=licensee) as memo_span:
                with use_memo(memo):
                    network = build()
                memo_span.tag(
                    hits=memo.hits - hits_before,
                    misses=memo.misses - misses_before,
                )
            obs.count("geodesy.memo.hit", memo.hits - hits_before)
            obs.count("geodesy.memo.miss", memo.misses - misses_before)
        return network

    def snapshot_from_licenses(
        self,
        licenses: Iterable[License],
        on_date: dt.date,
        licensee: str | None = None,
    ) -> HftNetwork:
        """A cached reconstruction of an explicit license set.

        For callers whose records do not come straight out of the engine's
        database: the §2.2 funnel reconstructs *scraped* licenses, and
        entity resolution pools filings across licensees.  When every
        active record is byte-identical to the database's row of the same
        id (pooled database rows are), the cache key fingerprints the
        active license ids exactly as :meth:`snapshot` does (ids are
        unique corridor-wide), under the resolved network name — so those
        callers share snapshots with the ranking/timeline drivers.

        Records that *differ* from the database's — scraped licenses,
        whose coordinates lose ~1e-8 deg through the portal's DMS
        round-trip — get a content-digested key instead.  Sharing the
        ids-only slot would let the scraped variant overwrite the
        database-derived snapshot and leak its perturbed floats into
        every later :meth:`snapshot` result (the byte-parity contracts
        in scripts/check.sh and the serve tier pin this).
        """
        license_list = list(licenses)
        licensee = network_name(license_list, licensee)
        active = [lic for lic in license_list if lic.is_active(on_date)]
        fingerprint = frozenset(lic.license_id for lic in active)
        verbatim = all(
            lic.license_id in self.database
            and self.database.get(lic.license_id) == lic
            for lic in active
        )
        if verbatim:
            key = (licensee, fingerprint, self.params_key)
        else:
            key = (
                licensee,
                (fingerprint, _license_content_digest(active)),
                self.params_key,
            )
        with obs.span("engine.snapshot", licensee=licensee, source="licenses"):
            network = self._snapshots.get(key)
            if network is None:
                obs.count("engine.snapshot.miss")
                network = self._reconstruct_memoised(
                    lambda: self.reconstructor.reconstruct(
                        license_list, on_date, licensee=licensee
                    ),
                    licensee,
                )
                self._snapshots.put(key, network)
        return network.with_as_of(on_date)

    def route(
        self, licensee: str, on_date: dt.date, source: str, target: str
    ) -> Route | None:
        """The lowest-latency ``source``→``target`` route, or None.

        Routes are cached per snapshot (so per active-set fingerprint, not
        per date) and per endpoint pair.  The snapshot key is computed
        once and shared between the route lookup and any snapshot rebuild.
        """
        return self._route_for_key(
            self.snapshot_key(licensee, on_date), licensee, on_date, source, target
        )

    def _route_for_key(
        self,
        snapshot_key: tuple,
        licensee: str,
        on_date: dt.date,
        source: str,
        target: str,
    ) -> Route | None:
        """The cached route for a resolved snapshot key."""
        key = (snapshot_key, source, target)
        route = self._routes.get(key, _MISSING)
        if route is _MISSING:
            obs.count("engine.route.miss")
            with obs.span(
                "engine.route", licensee=licensee, source=source, target=target
            ):
                network = self._snapshot_for_key(snapshot_key, licensee, on_date)
                route = network.lowest_latency_route(source, target)
            self._routes.put(key, route)
        return route

    def apa(
        self,
        licensee: str,
        on_date: dt.date,
        source: str,
        target: str,
        slack: float = APA_SLACK_FACTOR,
    ) -> float:
        """Alternate path availability over the ``source``→``target``
        route (§5; route scope), in [0, 1].

        The value is :func:`repro.core.apa.alternate_path_availability`
        of the cached snapshot and the cached :meth:`route`, so APA never
        searches for the route again.  It is cached, like the route, per
        snapshot key and endpoint pair, and per ``slack``.
        """
        snapshot_key = self.snapshot_key(licensee, on_date)
        key = (snapshot_key, source, target, slack)
        fraction = self._apa.get(key)
        if fraction is None:
            obs.count("engine.apa.miss")
            route = self._route_for_key(
                snapshot_key, licensee, on_date, source, target
            )
            network = self._snapshot_for_key(snapshot_key, licensee, on_date)
            fraction = alternate_path_availability(network, route, slack)
            self._apa.put(key, fraction)
        return fraction

    def is_connected(
        self, licensee: str, on_date: dt.date, source: str, target: str
    ) -> bool:
        """Whether an end-to-end path exists (via the route cache)."""
        return self.route(licensee, on_date, source, target) is not None

    def connected_networks(
        self,
        on_date: dt.date,
        source: str,
        target: str,
        licensees: Iterable[str] | None = None,
    ) -> list[HftNetwork]:
        """Networks with an end-to-end path on ``on_date`` (§3).

        Mirrors ``NetworkReconstructor.connected_networks``, with every
        snapshot and connectivity probe served through the caches.
        """
        names = (
            list(licensees)
            if licensees is not None
            else self.database.licensee_names()
        )
        return [
            self.snapshot(name, on_date)
            for name in names
            if self.is_connected(name, on_date, source, target)
        ]

    def timeline(
        self,
        licensee: str,
        dates: Sequence[dt.date],
        source: str | None = None,
        target: str | None = None,
    ) -> list[TimelinePoint]:
        """The Fig 1 series: one licensee's route latency over a date grid.

        Dates whose active license set is unchanged share one snapshot key,
        so they cost a bisect, a route-cache hit and nothing else.
        """
        source, target = self.corridor.resolve_path(source, target)
        points = []
        for date in dates:
            route = self.route(licensee, date, source, target)
            if route is None:
                points.append(TimelinePoint(date=date, latency_ms=None))
            else:
                points.append(
                    TimelinePoint(
                        date=date,
                        latency_ms=route.latency_ms,
                        tower_count=route.tower_count,
                    )
                )
        return points

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction counters for all four caches (a snapshot)."""
        memo = self._geodesic_memo
        return CacheStats(
            snapshot=self._snapshots.counter(),
            route=self._routes.counter(),
            apa=self._apa.counter(),
            geodesic=CacheCounter(
                hits=memo.hits,
                misses=memo.misses,
                evictions=memo.evictions,
                size=len(memo),
            ),
            index_events=self.database.temporal_index().event_count,
        )

    # ------------------------------------------------------------------
    # Cache export and seeding (the persistent store's payload)
    # ------------------------------------------------------------------

    def export_cache_state(self) -> EngineCacheExport:
        """A picklable copy of the current cache contents (no counters)."""
        return EngineCacheExport(
            params_key=self.params_key,
            snapshots=self._snapshots.items(),
            routes=self._routes.items(),
            apa=self._apa.items(),
            geodesic=self._geodesic_memo.entries(),
        )

    def seed_cache_state(self, export: EngineCacheExport) -> None:
        """Install exported entries into this engine's caches.

        Installation counts no hits or misses (it is not a lookup), and
        keys already cached keep their values; entries beyond a cache's
        capacity evict LRU-first as usual.  Afterwards the engine is
        :attr:`dirty` iff it holds a snapshot, route or APA value the
        export lacks.
        The export must have been taken under this engine's
        ``params_key``.
        """
        if export.params_key != self.params_key:
            raise ValueError(
                "cache export was taken under different reconstruction "
                "parameters"
            )
        for key, solution in export.geodesic:
            self._geodesic_memo.store(key, solution)
        self._snapshots.seed(export.snapshots)
        self._routes.seed(export.routes)
        self._apa.seed(export.apa)

    @property
    def dirty(self) -> bool:
        """Whether the caches hold anything the last seed or checkpoint
        did not: a new snapshot, route or APA value, or a seeded value
        that failed to decode."""
        return self._snapshots.dirty or self._routes.dirty or self._apa.dirty

    def checkpoint(self):
        """Persist this engine's cache contents to its attached store.

        Returns the path the store published the entry at, or ``None``
        without a store or when the engine is not :attr:`dirty` (the
        entry already holds everything).  Because an attached engine
        loaded the store's entry when it was attached, its caches are a
        superset of the entry (modulo LRU eviction), so a checkpoint
        never loses previously persisted state.
        """
        if self.store is None:
            return None
        with self._lock:
            if not self.dirty:
                return None
            path = self.store.save_from(self)
            self._snapshots.dirty = self._routes.dirty = self._apa.dirty = False
            return path

    def with_params(self, **overrides) -> "CorridorEngine":
        """A fresh engine sharing this database with parameter overrides.

        Parameter sweeps (ablations) must not share caches across
        parameterisations; this constructs the parameter-distinct sibling
        with empty caches.  Accepts the reconstruction-parameter keywords
        of the constructor (``latency_model``, ``stitch_tolerance_m``,
        ``max_fiber_tail_m``, ``fiber_mode``).
        """
        base = self.reconstructor.params()
        unknown = set(overrides) - set(base)
        if unknown:
            raise TypeError(f"unknown reconstruction parameters: {sorted(unknown)}")
        base.update(overrides)
        return CorridorEngine(
            self.database,
            self.corridor,
            snapshot_cache_size=self._snapshots.maxsize,
            route_cache_size=self._routes.maxsize,
            geodesic_memo_size=self._geodesic_memo.maxsize,
            **base,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CorridorEngine(licensees={len(self.database.licensee_names())}, "
            f"snapshots={len(self._snapshots)}, routes={len(self._routes)}, "
            f"apa={len(self._apa)})"
        )
