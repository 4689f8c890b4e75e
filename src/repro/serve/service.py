"""The corridor query service: validated endpoints over the facade.

:class:`CorridorQueryService` is the transport-free core of the server
— it maps ``(path, query params)`` to a JSON payload, with every
engine-touching computation routed through a
:class:`~repro.serve.facade.EngineFacade` (lock-scoped, coalesced).
The HTTP layer (:mod:`repro.serve.server`) is a thin adapter; tests
exercise the service directly where the socket adds nothing.

One service hosts *many* corridor scenarios: every analysis endpoint
accepts ``?scenario=NAME[:k=v,...]`` (resolved through
:mod:`repro.scenarios`), each resolved scenario gets its own
facade-wrapped warm engine and its own rendered-body cache in an
engine-per-scenario table built lazily on first request, and
``/scenarios`` lists what the registry offers and what is already
loaded.  Requests without the param hit the default scenario exactly
as before.

Faults are values, not stack traces: every rejected request raises a
:class:`ServiceError` carrying an HTTP status and a machine-readable
code, rendered as ``{"error": {"code": ..., "message": ...}}``.  An
unexpected handler exception becomes a structured 500 and the service
keeps serving.
"""

from __future__ import annotations

import datetime as dt
import threading
from collections import OrderedDict
from typing import Callable
from urllib.parse import parse_qsl, urlsplit

from repro import obs
from repro.core.engine import CorridorEngine
from repro.serve import payloads
from repro.serve.facade import EngineFacade
from repro.serve.payloads import DATE_MAX, DATE_MIN, render_payload
from repro.synth.scenario import Scenario


class ServiceError(Exception):
    """A structured request failure (HTTP status + stable error code)."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code

    def payload(self) -> dict:
        return {"error": {"code": self.code, "message": str(self)}}


# ----------------------------------------------------------------------
# Parameter parsing/validation helpers
# ----------------------------------------------------------------------


def parse_request(url: str) -> tuple[str, dict[str, str]]:
    """Split a request target into (path, params); reject duplicates."""
    parts = urlsplit(url)
    params: dict[str, str] = {}
    for key, value in parse_qsl(parts.query, keep_blank_values=True):
        if key in params:
            raise ServiceError(
                400, "duplicate-param", f"query parameter repeated: {key!r}"
            )
        params[key] = value
    return parts.path, params


def _check_params(params: dict[str, str], allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ServiceError(
            400,
            "unknown-param",
            f"unknown query parameter(s) {unknown}; "
            f"expected a subset of {sorted(allowed)}",
        )


def _date_param(
    params: dict[str, str], name: str, default: dt.date | None
) -> dt.date | None:
    text = params.get(name)
    if text is None:
        date = default
    else:
        try:
            date = dt.date.fromisoformat(text)
        except ValueError:
            raise ServiceError(
                400, "bad-date", f"{name!r} is not a YYYY-MM-DD date: {text!r}"
            ) from None
    if date is not None and not (DATE_MIN <= date <= DATE_MAX):
        raise ServiceError(
            400,
            "date-out-of-range",
            f"{name!r} must fall within [{DATE_MIN}, {DATE_MAX}], "
            f"got {date.isoformat()}",
        )
    return date


def _float_param(
    params: dict[str, str], name: str, default: float | None
) -> float | None:
    text = params.get(name)
    if text is None:
        return default
    try:
        value = float(text)
    except ValueError:
        raise ServiceError(
            400, "bad-number", f"{name!r} is not a number: {text!r}"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ServiceError(400, "bad-number", f"{name!r} must be finite")
    return value


#: Bound on cached rendered bodies.  The request space is small (a
#: handful of endpoints x a few hundred plausible param combinations);
#: 256 covers a steady-state load profile without unbounded growth.
DEFAULT_BODY_CACHE_SIZE = 256


class ResponseBodyCache:
    """Rendered 200 response bodies, keyed on what the payload depends on.

    One level above the facade: a hit skips payload building *and* JSON
    rendering.  A key is ``(path, canonical args, fingerprints)``, where
    the fingerprints are the active license sets of the licensees a
    dated payload reads (DESIGN.md §13, "The body cache").  The query
    date is not part of the key: an entry is the body split at its date
    value, ``(head, tail)``, and a hit is ``head + date + tail``.

    Entries are scoped to one engine generation — any database mutation
    bumps the generation and the next lookup drops every cached body, so
    a stale body can never be served (same invalidation rule as the
    engine's own caches).  Entries are immutable ``bytes`` pairs, safe
    to hand to any number of threads.
    """

    def __init__(self, maxsize: int = DEFAULT_BODY_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._generation: int | None = None
        self._entries: OrderedDict[tuple, tuple[bytes, bytes]] = OrderedDict()
        self._lock = threading.Lock()

    def _sync_generation(self, generation: int) -> None:
        if generation != self._generation:
            if self._entries:
                self.invalidations += 1
                self._entries.clear()
            self._generation = generation

    def get(self, key: tuple, generation: int) -> tuple[bytes, bytes] | None:
        with self._lock:
            self._sync_generation(generation)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, generation: int, entry: tuple[bytes, bytes]) -> None:
        with self._lock:
            self._sync_generation(generation)
            if key not in self._entries and len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
            self._entries[key] = entry
            self._entries.move_to_end(key)

    def describe(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "generation": self._generation,
            }


#: Stands in for the query date while a dated payload renders, so the
#: body splits at the date's one position.  It renders as ``"\u0000"``,
#: which no payload text spells; a body that held it twice would not
#: be cached.
_DATE_SENTINEL = "\x00"
_SENTINEL_TOKEN = render_payload(_DATE_SENTINEL).encode("utf-8")


def _render(payload: dict) -> bytes:
    return (render_payload(payload) + "\n").encode("utf-8")


def _stamped(payload: dict, date_at: tuple[str, ...], value: str) -> dict:
    """A copy of ``payload`` whose date slot holds ``value``.

    ``date_at`` names the keys from the payload root down to the dict
    whose ``"date"`` is the query date.  Only the dicts on that path are
    copied; ``payload`` itself is never mutated (coalesced followers
    share it).
    """
    if not date_at:
        return {**payload, "date": value}
    first, rest = date_at[0], date_at[1:]
    return {**payload, first: _stamped(payload[first], rest, value)}


def _split_at_date(payload: dict, date_at: tuple[str, ...]) -> tuple[bytes, bytes] | None:
    """``payload``'s body as ``(head, tail)`` around its date value, so
    ``head + date + tail`` is the body for any date; ``None`` if the
    rendered body does not hold exactly one date slot."""
    parts = _render(_stamped(payload, date_at, _DATE_SENTINEL)).split(
        _SENTINEL_TOKEN
    )
    if len(parts) != 2:
        return None
    return parts[0], parts[1]


class _ScenarioState:
    """One hosted scenario: its facade-wrapped engine and body cache."""

    __slots__ = ("scenario", "facade", "bodies")

    def __init__(self, scenario: Scenario, facade: EngineFacade) -> None:
        self.scenario = scenario
        self.facade = facade
        self.bodies = ResponseBodyCache()


class CorridorQueryService:
    """Route validated queries to payload builders over warm engines.

    Parameters
    ----------
    scenario:
        The *default* corridor scenario — served when a request carries
        no ``scenario`` param (defaults to ``paper2020``).  Other
        registered scenarios are loaded on demand into the
        engine-per-scenario table.
    engine:
        The default scenario's shared warm engine behind its facade;
        defaults to the scenario's shared default engine.
    store:
        A :class:`repro.store.CacheStore` attached to the default engine
        and to every scenario engine loaded on demand, so a draining
        :meth:`checkpoint` persists them all.
    """

    def __init__(
        self,
        scenario: Scenario | None = None,
        engine: CorridorEngine | None = None,
        store=None,
    ) -> None:
        if scenario is None:
            from repro.scenarios import resolve_scenario

            scenario = resolve_scenario("paper2020")
        self.scenario = scenario
        self.store = store
        shared = engine if engine is not None else self.scenario.engine()
        if store is not None:
            store.attach(shared)
        self._default_state = _ScenarioState(self.scenario, EngineFacade(shared))
        # Canonical scenario reference -> loaded state.  The default
        # scenario sits under its own name, so `?scenario=<default>`
        # routes to the very same engine and body cache.
        self._states: dict[str, _ScenarioState] = {
            self.scenario.name: self._default_state
        }
        self._states_lock = threading.Lock()
        # The state the *current thread's* request resolved; handlers
        # read it through `_current()`.  Thread-local because requests
        # for different scenarios run concurrently, and the coalescing
        # leader computes on the thread that set the value.
        self._local = threading.local()
        self.routes: dict[str, Callable[[CorridorEngine, dict], dict]] = {
            "/rankings": self._rankings,
            "/timeline": self._timeline,
            "/apa": self._apa,
            "/search": self._search,
            "/map": self._map,
        }
        # The dated endpoints: each one's query (see `_rankings_query`)
        # and the keys leading to the dict whose "date" its payload
        # echoes.  The body cache keys them by fingerprints, not date.
        self._dated: dict[str, tuple[Callable, tuple[str, ...]]] = {
            "/rankings": (self._rankings_query, ()),
            "/apa": (self._apa_query, ()),
            "/map": (self._map_query, ("properties",)),
        }

    @property
    def facade(self) -> EngineFacade:
        """The default scenario's facade (service-level request counters)."""
        return self._default_state.facade

    @property
    def bodies(self) -> ResponseBodyCache:
        """The default scenario's rendered-body cache."""
        return self._default_state.bodies

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def handle_http(self, url: str) -> tuple[int, bytes]:
        """One request target -> (status, canonical JSON body bytes).

        Successful analysis responses are served from the rendered-body
        cache when possible; ``/healthz`` and ``/stats`` (live values)
        and every error path always render fresh.
        """
        lookup = self._body_lookup(url)
        if lookup is None:
            status, payload = self.handle_url(url)
            return status, _render(payload)
        state, key, generation, stamp = lookup
        entry = state.bodies.get(key, generation)
        if entry is not None:
            obs.count("serve.body_cache.hit")
            # A body hit is still a request for accounting purposes.
            self.facade.enter_request()
            self.facade.exit_request()
            return 200, entry[0] + stamp + entry[1]
        obs.count("serve.body_cache.miss")
        status, payload = self.handle_url(url)
        if status != 200:
            return status, _render(payload)
        dated = self._dated.get(key[0])
        if dated is None:
            entry = (_render(payload), b"")
        else:
            entry = _split_at_date(payload, dated[1])
            if entry is None:
                return status, _render(payload)
        state.bodies.put(key, generation, entry)
        return status, entry[0] + stamp + entry[1]

    def _body_lookup(
        self, url: str
    ) -> tuple[_ScenarioState, tuple, int, bytes] | None:
        """Where ``url``'s body is cached: ``(state, key, generation,
        stamp)``, or ``None`` if it is not cacheable.

        Only analysis endpoints cache — ``/healthz``/``/stats`` report
        live state, and a request that fails parsing, scenario
        resolution or validation takes the (uncached) error path.  A
        dated endpoint's key is ``(path, validated args, fingerprints)``
        and its stamp is the rendered date spliced into the cached body;
        any other endpoint keys on its sorted params with no
        fingerprints and an empty stamp.
        """
        try:
            path, params = parse_request(url)
            if path not in self.routes:
                return None
            state = self._resolve_state(params.pop("scenario", None))
            dated = self._dated.get(path)
            if dated is None:
                key = (path, tuple(sorted(params.items())), ())
                return state, key, state.facade.engine.database.generation, b""
            self._local.state = state
            try:
                date, args, names = dated[0](params)
            finally:
                self._local.state = None
        except ServiceError:
            return None
        engine = state.facade.engine
        # The temporal indices build lazily and mutate the database.
        with engine.locked():
            generation = engine.database.generation
            fingerprints = tuple(
                engine.active_fingerprint(name, date) for name in names
            )
        stamp = render_payload(date.isoformat()).encode("utf-8")
        return state, (path, args, fingerprints), generation, stamp

    def handle_url(self, url: str) -> tuple[int, dict]:
        """One request target -> (status, payload dict); never raises."""
        self.facade.enter_request()
        try:
            path, params = parse_request(url)
            return 200, self.handle(path, params)
        except ServiceError as error:
            self.facade.note_error()
            return error.status, error.payload()
        except Exception as error:  # lint: disable=broad-except (server boundary: every handler fault must surface as structured JSON on the socket, never a traceback or a dead connection)
            self.facade.note_error()
            return 500, {
                "error": {
                    "code": "internal",
                    "message": f"{type(error).__name__}: {error}",
                }
            }
        finally:
            self.facade.exit_request()

    def handle(self, path: str, params: dict[str, str]) -> dict:
        """Dispatch a parsed request; raises :class:`ServiceError`."""
        if path == "/healthz":
            _check_params(params, ())
            return {"status": "ok"}
        if path == "/stats":
            _check_params(params, ())
            stats = self.facade.describe()
            stats["body_cache"] = self.bodies.describe()
            stats["scenarios"] = self._scenario_stats()
            return stats
        if path == "/scenarios":
            _check_params(params, ())
            return self._scenarios_payload()
        handler = self.routes.get(path)
        if handler is None:
            raise ServiceError(
                404,
                "unknown-endpoint",
                f"no such endpoint: {path!r}; expected one of "
                f"{sorted(self.routes) + ['/healthz', '/scenarios', '/stats']}",
            )
        state = self._resolve_state(params.pop("scenario", None))
        key = (path, tuple(sorted(params.items())))
        self._local.state = state
        try:
            with obs.span(
                "serve.request", endpoint=path, scenario=state.scenario.name
            ):
                obs.count("serve.request" + path.replace("/", "."))
                return state.facade.coalesced(
                    key, lambda: handler(state.facade.engine, params)
                )
        finally:
            self._local.state = None

    def _current(self) -> _ScenarioState:
        """The state the current thread's request resolved to."""
        return getattr(self._local, "state", None) or self._default_state

    def _resolve_state(self, text: str | None) -> _ScenarioState:
        """The loaded state for a ``scenario`` query param (lazy table).

        ``None``/empty routes to the default.  A reference that resolves
        to an already-hosted scenario reuses that scenario's facade and
        body cache — coalescing and generation scoping stay per-engine
        no matter how many spellings of the reference arrive.
        """
        if not text:
            return self._default_state
        from repro.scenarios import (
            ScenarioParamError,
            UnknownScenarioError,
            parse_scenario_ref,
            resolve_scenario,
        )

        try:
            canonical = parse_scenario_ref(text).canonical
            with self._states_lock:
                state = self._states.get(canonical)
            if state is not None:
                return state
            # The store (if any) supplies the built scenario and is
            # attached to its engine outside the table lock.
            scenario = resolve_scenario(canonical, store=self.store)
        except UnknownScenarioError as error:
            raise ServiceError(404, "unknown-scenario", str(error)) from None
        except ScenarioParamError as error:
            raise ServiceError(400, "bad-scenario", str(error)) from None
        with self._states_lock:
            state = self._states.get(canonical)
            if state is not None:
                return state
            for state in self._states.values():
                if state.scenario is scenario:
                    self._states[canonical] = state
                    return state
            state = _ScenarioState(scenario, EngineFacade(scenario.engine()))
            self._states[canonical] = state
            return state

    def _scenario_stats(self) -> dict:
        """Per-loaded-scenario facade + body-cache stats for ``/stats``."""
        with self._states_lock:
            states = dict(self._states)
        return {
            ref: {
                "scenario": state.scenario.name,
                "facade": state.facade.describe()["facade"],
                "body_cache": state.bodies.describe(),
            }
            for ref, state in states.items()
        }

    def _scenarios_payload(self) -> dict:
        """``/scenarios``: the registry's offerings and what is loaded."""
        from repro.scenarios import registered_scenarios

        with self._states_lock:
            loaded = sorted(self._states)
        return {
            "endpoint": "scenarios",
            "default": self.scenario.name,
            "loaded": loaded,
            "scenarios": [
                {
                    "name": entry.name,
                    "summary": entry.summary,
                    "concrete": entry.concrete,
                    "params": sorted(entry.params),
                }
                for entry in registered_scenarios()
            ],
        }

    def checkpoint(self):
        """Persist every loaded warm engine's caches to its store.

        The draining-shutdown hook: :meth:`repro.serve.server
        .CorridorServer.close` calls this after the last in-flight
        request completes, so the next server boot starts warm — for
        every scenario the table loaded, not just the default.  A no-op
        without a store.
        """
        with self._states_lock:
            states = list(self._states.values())
        result = None
        seen: set[int] = set()
        for state in states:
            engine = state.facade.engine
            if id(engine) in seen:
                continue
            seen.add(id(engine))
            checkpointed = engine.checkpoint()
            if state is self._default_state:
                result = checkpointed
        return result

    # ------------------------------------------------------------------
    # Endpoint handlers (validated params -> payload builders)
    # ------------------------------------------------------------------

    def _licensee_param(
        self, params: dict[str, str], default: str | None = None
    ) -> str | None:
        scenario = self._current().scenario
        name = params.get("licensee", default)
        if name is not None and name not in scenario.database.licensee_names():
            raise ServiceError(404, "unknown-licensee", f"unknown licensee: {name!r}")
        return name

    def _site_param(self, params: dict[str, str], name: str, default: str) -> str:
        site = params.get(name, default)
        scenario = self._current().scenario
        known = sorted({s for path in scenario.corridor.paths for s in path})
        if site not in known:
            raise ServiceError(
                400, "unknown-site", f"{name!r} must be one of {known}, got {site!r}"
            )
        return site

    # A dated endpoint's query validates its params and returns ``(date,
    # args, licensees)``: everything its payload depends on besides the
    # engine is ``args`` and the licensees' active sets on ``date``.

    def _rankings_query(
        self, params: dict[str, str]
    ) -> tuple[dt.date, tuple, tuple[str, ...]]:
        _check_params(params, ("date", "source", "target"))
        scenario = self._current().scenario
        date = _date_param(params, "date", scenario.snapshot_date)
        default_source, default_target = scenario.primary_path
        source = self._site_param(params, "source", default_source)
        target = self._site_param(params, "target", default_target)
        return date, (source, target), tuple(scenario.database.licensee_names())

    def _rankings(self, engine: CorridorEngine, params: dict[str, str]) -> dict:
        date, (source, target), _ = self._rankings_query(params)
        return payloads.rankings_payload(
            self._current().scenario, engine, date, source, target
        )

    def _timeline(self, engine: CorridorEngine, params: dict[str, str]) -> dict:
        _check_params(params, ("step", "licensee"))
        step = params.get("step", "paper")
        if step not in ("paper", "monthly", "weekly"):
            raise ServiceError(
                400,
                "bad-step",
                f"'step' must be one of ['paper', 'monthly', 'weekly'], got {step!r}",
            )
        licensee = self._licensee_param(params)
        names = (licensee,) if licensee else None
        return payloads.timeline_payload(
            self._current().scenario, engine, step, names
        )

    def _apa_query(
        self, params: dict[str, str]
    ) -> tuple[dt.date, tuple, tuple[str, ...]]:
        _check_params(params, ("date", "licensee"))
        scenario = self._current().scenario
        date = _date_param(params, "date", scenario.snapshot_date)
        licensee = self._licensee_param(params)
        names = (licensee,) if licensee else tuple(scenario.spotlight_names)
        return date, names, names

    def _apa(self, engine: CorridorEngine, params: dict[str, str]) -> dict:
        date, names, _ = self._apa_query(params)
        return payloads.apa_payload(self._current().scenario, engine, date, names)

    def _search(self, engine: CorridorEngine, params: dict[str, str]) -> dict:
        _check_params(params, ("lat", "lon", "radius_m", "active_on"))
        latitude = _float_param(params, "lat", None)
        longitude = _float_param(params, "lon", None)
        if latitude is not None and not -90.0 <= latitude <= 90.0:
            raise ServiceError(400, "bad-number", "'lat' must be in [-90, 90]")
        if longitude is not None and not -180.0 <= longitude <= 180.0:
            raise ServiceError(400, "bad-number", "'lon' must be in [-180, 180]")
        radius_m = _float_param(params, "radius_m", None)
        if radius_m is not None and radius_m <= 0:
            raise ServiceError(400, "bad-number", "'radius_m' must be positive")
        active_on = _date_param(params, "active_on", None)
        return payloads.search_payload(
            self._current().scenario, latitude, longitude, radius_m, active_on
        )

    def _map_query(
        self, params: dict[str, str]
    ) -> tuple[dt.date, tuple, tuple[str, ...]]:
        _check_params(params, ("licensee", "date"))
        scenario = self._current().scenario
        licensee = self._licensee_param(params, scenario.spotlight_names[0])
        date = _date_param(params, "date", scenario.snapshot_date)
        return date, (licensee,), (licensee,)

    def _map(self, engine: CorridorEngine, params: dict[str, str]) -> dict:
        date, (licensee,), _ = self._map_query(params)
        return payloads.map_payload(self._current().scenario, engine, licensee, date)
