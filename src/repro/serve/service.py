"""The corridor query service: validated endpoints over the facade.

:class:`CorridorQueryService` is the transport-free core of the server
— :meth:`CorridorQueryService.handle_http` maps a request target to a
status and a canonical JSON body, parsing, validating and keying it
once, with every engine-touching computation routed through a
:class:`~repro.serve.facade.EngineFacade` (lock-scoped, coalesced).
The HTTP layer (:mod:`repro.serve.server`) is a thin adapter; tests
exercise the service directly where the socket adds nothing.

One service hosts *many* corridor scenarios: every analysis endpoint
accepts ``?scenario=NAME[:k=v,...]`` (resolved through
:mod:`repro.scenarios`), each hosted scenario gets its own
facade-wrapped warm engine and rendered-body cache, loaded lazily on
first request, and ``/scenarios`` lists what the registry offers and
what is loaded.  Requests without the param hit the default scenario.

Faults are values, not stack traces: every rejected request raises a
:class:`ServiceError` carrying an HTTP status and a machine-readable
code, rendered as ``{"error": {"code": ..., "message": ...}}``.  An
unexpected handler exception becomes a structured 500 and the service
keeps serving.
"""

from __future__ import annotations

import datetime as dt
import json
import threading
from collections import OrderedDict
from typing import Callable, NamedTuple
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
    rendering.  A key is ``(path, canonical args, intervals)``, where
    the intervals stand for the active license sets of the licensees a
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
    copied; ``payload`` itself is never mutated.
    """
    if not date_at:
        return {**payload, "date": value}
    first, rest = date_at[0], date_at[1:]
    return {**payload, first: _stamped(payload[first], rest, value)}


def _body_parts(payload: dict, date_at: tuple[str, ...] | None) -> tuple | None:
    """``payload``'s body as ``(head, tail)`` around its date slot, so
    ``head + date + tail`` is the body for any date (``date_at`` is
    ``None``: no slot, an empty tail); ``None`` if the rendered body
    does not hold exactly one date slot."""
    if date_at is None:
        return _render(payload), b""
    parts = _render(_stamped(payload, date_at, _DATE_SENTINEL)).split(
        _SENTINEL_TOKEN
    )
    if len(parts) != 2:
        return None
    return parts[0], parts[1]


# ----------------------------------------------------------------------
# Endpoints: a validator and a builder each
# ----------------------------------------------------------------------


class Endpoint(NamedTuple):
    """One analysis endpoint.

    ``validate(scenario, params)`` checks the query and returns ``(date,
    args, names)``: the payload depends on nothing but ``args`` and the
    active license sets of ``names`` on ``date`` (``None`` names the
    whole database; an undated endpoint has ``date=None``, no names).
    ``build(scenario, engine, date, *args)`` makes the payload;
    ``date_at`` names the keys from its root down to the dict whose
    ``"date"`` echoes the query date.
    """

    validate: Callable[[Scenario, dict[str, str]], tuple]
    build: Callable[..., dict]
    date_at: tuple[str, ...] = ()


def _licensee_param(
    scenario: Scenario, params: dict[str, str], default: str | None = None
) -> str | None:
    name = params.get("licensee", default)
    if name is not None and name not in scenario.database.licensee_names():
        raise ServiceError(404, "unknown-licensee", f"unknown licensee: {name!r}")
    return name


def _site_param(
    scenario: Scenario, params: dict[str, str], name: str, default: str
) -> str:
    site = params.get(name, default)
    known = sorted({s for path in scenario.corridor.paths for s in path})
    if site not in known:
        raise ServiceError(
            400, "unknown-site", f"{name!r} must be one of {known}, got {site!r}"
        )
    return site


def _rankings_query(scenario: Scenario, params: dict[str, str]) -> tuple:
    _check_params(params, ("date", "source", "target"))
    date = _date_param(params, "date", scenario.snapshot_date)
    default_source, default_target = scenario.primary_path
    source = _site_param(scenario, params, "source", default_source)
    target = _site_param(scenario, params, "target", default_target)
    # Every licensee's active set: each license has one licensee, so the
    # whole database's active set determines them all.
    return date, (source, target), (None,)


def _timeline_query(scenario: Scenario, params: dict[str, str]) -> tuple:
    _check_params(params, ("step", "licensee"))
    step = params.get("step", "paper")
    if step not in ("paper", "monthly", "weekly"):
        raise ServiceError(
            400,
            "bad-step",
            f"'step' must be one of ['paper', 'monthly', 'weekly'], got {step!r}",
        )
    licensee = _licensee_param(scenario, params)
    return None, (step, (licensee,) if licensee else None), ()


def _apa_query(scenario: Scenario, params: dict[str, str]) -> tuple:
    _check_params(params, ("date", "licensee"))
    date = _date_param(params, "date", scenario.snapshot_date)
    licensee = _licensee_param(scenario, params)
    names = (licensee,) if licensee else tuple(scenario.spotlight_names)
    # Two licensees with no license share interval 0, so the names are
    # args too.
    return date, (names,), names


def _search_query(scenario: Scenario, params: dict[str, str]) -> tuple:
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
    # A key compares by ``==``, under which -0.0 is 0.0, but the payload
    # echoes the sign: the repr tells the two apart.
    center = (latitude, longitude, repr((latitude, longitude)))
    return None, (*center, radius_m, active_on), ()


def _map_query(scenario: Scenario, params: dict[str, str]) -> tuple:
    _check_params(params, ("licensee", "date"))
    licensee = _licensee_param(scenario, params, scenario.spotlight_names[0])
    date = _date_param(params, "date", scenario.snapshot_date)
    return date, (licensee,), (licensee,)


#: The analysis endpoints.  Each service copies the table, so a test can
#: add or wrap an endpoint on one service.
ENDPOINTS: dict[str, Endpoint] = {
    "/rankings": Endpoint(_rankings_query, payloads.rankings_payload),
    "/timeline": Endpoint(
        _timeline_query,
        lambda scenario, engine, _, *args: payloads.timeline_payload(
            scenario, engine, *args
        ),
    ),
    "/apa": Endpoint(_apa_query, payloads.apa_payload),
    "/search": Endpoint(
        _search_query,
        lambda scenario, engine, _, lat, lon, _sign, *args: (
            payloads.search_payload(scenario, lat, lon, *args)
        ),
    ),
    "/map": Endpoint(
        _map_query,
        lambda scenario, engine, date, licensee: payloads.map_payload(
            scenario, engine, licensee, date
        ),
        ("properties",),
    ),
}


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
        registered scenarios are loaded on demand; the service hosts at
        most :data:`repro.scenarios.registry.MEMO_SIZE` of them beside
        the default, least recently requested dropped first.
    engine:
        The default scenario's shared warm engine behind its facade;
        defaults to the scenario's shared default engine.
    store:
        A :class:`repro.store.CacheStore` attached to the default engine
        and to every scenario engine loaded on demand, so a draining
        :meth:`checkpoint` persists them all.  A dropped scenario's
        engine is checkpointed and detached.
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
        # Normalised scenario reference -> state, least recently
        # requested first; the default is never here, nor dropped.
        self._hosted: OrderedDict[str, _ScenarioState] = OrderedDict()
        self._hosted_lock = threading.Lock()
        self.endpoints: dict[str, Endpoint] = dict(ENDPOINTS)
        # Live endpoints: never cached, no scenario, no params.
        self._live: dict[str, Callable[[], dict]] = {
            "/healthz": lambda: {"status": "ok"},
            "/scenarios": self._scenarios_payload,
            "/stats": self._stats_payload,
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

        Never raises: a rejected request is its structured 4xx, and an
        unexpected fault a structured 500.
        """
        self.facade.enter_request()
        try:
            return 200, self._respond(url)
        except ServiceError as error:
            self.facade.note_error()
            return error.status, _render(error.payload())
        except Exception as error:  # lint: disable=broad-except (server boundary: every handler fault must surface as structured JSON on the socket, never a traceback or a dead connection)
            self.facade.note_error()
            message = f"{type(error).__name__}: {error}"
            return 500, _render(ServiceError(500, "internal", message).payload())
        finally:
            self.facade.exit_request()

    def handle_url(self, url: str) -> tuple[int, dict]:
        """:meth:`handle_http` with the body decoded (for tests)."""
        status, body = self.handle_http(url)
        return status, json.loads(body)

    def _respond(self, url: str) -> bytes:
        """A 200 body for ``url``; raises :class:`ServiceError`.

        The body-cache key is also the coalescing key: on a miss one
        leader builds, renders and splits the body, and every request on
        the key splices its own date into those bytes (DESIGN.md §13).
        """
        path, params = parse_request(url)
        live = self._live.get(path)
        if live is not None:
            _check_params(params, ())
            return _render(live())
        endpoint = self.endpoints.get(path)
        if endpoint is None:
            raise ServiceError(
                404,
                "unknown-endpoint",
                f"no such endpoint: {path!r}; expected one of "
                f"{sorted(self.endpoints) + sorted(self._live)}",
            )
        state = self._resolve_state(params.pop("scenario", None))
        scenario = state.scenario
        date, args, names = endpoint.validate(scenario, params)
        engine = state.facade.engine
        database = engine.database
        # A name's constant-active-set interval on `date` stands for its
        # active set, for one bisect and no set built.  The temporal
        # indices build lazily and mutate the database.
        with engine.locked():
            generation = database.generation
            intervals = tuple(
                database.temporal_index(name).interval_of(date) for name in names
            )
        key = (path, args, intervals)
        stamp = b"" if date is None else render_payload(date.isoformat()).encode()
        entry = state.bodies.get(key, generation)
        if entry is not None:
            obs.count("serve.body_cache.hit")
            return entry[0] + stamp + entry[1]
        obs.count("serve.body_cache.miss")
        date_at = None if date is None else endpoint.date_at
        with obs.span("serve.request", endpoint=path, scenario=scenario.name):
            obs.count("serve.request" + path.replace("/", "."))
            entry = state.facade.coalesced(
                key,
                lambda: _body_parts(
                    endpoint.build(scenario, engine, date, *args), date_at
                ),
            )
        if entry is None:
            # No single date slot: the body is neither cached nor shared.
            with engine.locked():
                return _render(endpoint.build(scenario, engine, date, *args))
        state.bodies.put(key, generation, entry)
        return entry[0] + stamp + entry[1]

    # ------------------------------------------------------------------
    # Hosted scenarios
    # ------------------------------------------------------------------

    def _resolve_state(self, text: str | None) -> _ScenarioState:
        """The hosted state for a ``scenario`` query param.

        ``None``/empty routes to the default.  Every spelling of one
        reference shares one state, so coalescing and generation scoping
        stay per-engine.  Past ``MEMO_SIZE`` hosted scenarios, the least
        recently requested is dropped: its engine is checkpointed and
        detached from the store, and a later request builds it afresh.
        """
        if not text or text == self.scenario.name:
            return self._default_state
        # A normalised reference normalises to itself, so the usual
        # spellings skip the registry.
        state = self._hosted_state(text)
        if state is not None:
            return state
        from repro.scenarios.registry import (
            MEMO_SIZE,
            ScenarioParamError,
            UnknownScenarioError,
            normalise_ref,
            resolve_scenario,
        )

        try:
            ref = normalise_ref(text)
            key = ref.canonical
            if key == self.scenario.name:
                return self._default_state
            state = self._hosted_state(key)
            if state is not None:
                return state
            # The store (if any) supplies the built scenario and is
            # attached to its engine outside the table lock.
            scenario = resolve_scenario(ref, store=self.store)
        except UnknownScenarioError as error:
            raise ServiceError(404, "unknown-scenario", str(error)) from None
        except ScenarioParamError as error:
            raise ServiceError(400, "bad-scenario", str(error)) from None
        if scenario is self.scenario:
            return self._default_state
        # Hosting attaches and dropping detaches under one lock, so no race
        # with a drop, or with a request whose scenario the registry has
        # since rebuilt, leaves a hosted engine detached or another one
        # attached.
        with self._hosted_lock:
            state = self._hosted.get(key)
            if state is None:
                engine = scenario.engine()
                if self.store is not None:
                    self.store.attach(engine)
                state = _ScenarioState(scenario, EngineFacade(engine))
                self._hosted[key] = state
            elif state.scenario is not scenario and self.store is not None:
                self.store.detach(scenario.engine())
            self._hosted.move_to_end(key)
            while len(self._hosted) > MEMO_SIZE:
                engine = self._hosted.popitem(last=False)[1].facade.engine
                engine.checkpoint()
                if self.store is not None:
                    self.store.detach(engine)
        return state

    def _hosted_state(self, key: str) -> _ScenarioState | None:
        with self._hosted_lock:
            state = self._hosted.get(key)
            if state is not None:
                self._hosted.move_to_end(key)
            return state

    def _loaded(self) -> dict[str, _ScenarioState]:
        """Every hosted state, the default first, by reference."""
        with self._hosted_lock:
            return {self.scenario.name: self._default_state, **self._hosted}

    def _stats_payload(self) -> dict:
        """``/stats``: the default facade, body cache and every scenario."""
        stats = self.facade.describe()
        stats["body_cache"] = self.bodies.describe()
        stats["scenarios"] = {
            ref: {
                "scenario": state.scenario.name,
                "facade": state.facade.describe()["facade"],
                "body_cache": state.bodies.describe(),
            }
            for ref, state in self._loaded().items()
        }
        return stats

    def _scenarios_payload(self) -> dict:
        """``/scenarios``: the registry's offerings and what is loaded."""
        from repro.scenarios import registered_scenarios

        return {
            "endpoint": "scenarios",
            "default": self.scenario.name,
            "loaded": sorted(self._loaded()),
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
        """Persist every hosted warm engine's caches to its store.

        The draining-shutdown hook: :meth:`repro.serve.server
        .CorridorServer.close` calls this after the last in-flight
        request completes, so the next server boot starts warm — for
        every scenario the service hosts, not just the default.  A no-op
        without a store; returns the default engine's checkpoint.
        """
        result = None
        for state in self._loaded().values():
            checkpointed = state.facade.engine.checkpoint()
            if state is self._default_state:
                result = checkpointed
        return result
