"""The scenario registry: ``NAME[:k=v,...]`` references → scenarios.

A :class:`ScenarioRef` is the parsed form of the reference string the CLI
(``--scenario``) and the query service (``?scenario=``) accept: a
registered builder name plus optional ``key=value`` parameters.  The
reference is canonicalised (parameters sorted by key) so equal references
compare and hash equal and two spellings of the same parameters build the
same keyword arguments.

The registry owns the only scenario memo: each :class:`ScenarioEntry`
keeps its resolved scenarios keyed by converted parameters (one for a
fixed scenario, an LRU of :data:`MEMO_SIZE` for the parameterized
generator), so every caller of the same reference shares one
:class:`~repro.synth.scenario.Scenario` and therefore one warm default
engine.  The builders themselves are plain functions: a second cache
beside them could hand out a second scenario (and a second engine) for
the same reference.  Re-registering a name drops its memo with the old
entry.

A ``store`` (:class:`repro.store.CacheStore`) passed to
:func:`resolve_scenario` is asked for the built scenario before the
builder runs, and receives every scenario the builder does build, so a
warm process skips synthesis (DESIGN.md §15).

Built-in entries:

``paper2020``
    The calibrated Chicago–New Jersey scenario (the default everywhere;
    built by :func:`repro.synth.scenario.paper2020_scenario`).
``europe2020``
    London–Frankfurt (LD4–FR2), three synthetic networks.
``tokyo-singapore``
    Tokyo–Singapore (TY3–SG1), ~5,314 km long-haul.
``synthetic``
    Parameterized generator (``seed``, ``networks``, ``links``, ``eras``,
    ``decoys``, corridor geography) for stress-scale scenarios; see
    :func:`repro.scenarios.synthetic.synthetic_scenario`.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.synth.scenario import (
    Scenario,
    europe2020_scenario,
    paper2020_scenario,
    tokyo_singapore_scenario,
)


class UnknownScenarioError(ValueError):
    """The reference names no registered scenario."""


class ScenarioParamError(ValueError):
    """The reference carries malformed or unsupported parameters."""


#: Resolved scenarios each entry keeps, least recently used evicted
#: first (a fixed scenario only ever has one reference).
MEMO_SIZE = 16


@dataclass(frozen=True)
class ScenarioRef:
    """A parsed scenario reference: registry name + sorted parameters.

    ``params`` holds the raw ``(key, value)`` string pairs sorted by key;
    conversion to typed values happens at resolution time against the
    registry entry's declared parameter converters.
    """

    name: str
    params: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioParamError("scenario name must be non-empty")
        keys = [key for key, _ in self.params]
        if len(set(keys)) != len(keys):
            raise ScenarioParamError(f"duplicate scenario parameter in {keys}")
        ordered = tuple(sorted(self.params))
        if ordered != self.params:
            object.__setattr__(self, "params", ordered)

    @property
    def canonical(self) -> str:
        """The normalised reference string (``name`` or ``name:k=v,...``)."""
        if not self.params:
            return self.name
        return self.name + ":" + ",".join(f"{k}={v}" for k, v in self.params)


def parse_scenario_ref(text: str | ScenarioRef) -> ScenarioRef:
    """Parse ``NAME`` or ``NAME:k=v,k2=v2`` into a :class:`ScenarioRef`."""
    if isinstance(text, ScenarioRef):
        return text
    head, sep, tail = text.strip().partition(":")
    if not sep:
        return ScenarioRef(head)
    pairs = []
    for item in tail.split(","):
        key, eq, value = item.partition("=")
        if not eq or not key.strip() or not value.strip():
            raise ScenarioParamError(
                f"malformed scenario parameter {item!r} in {text!r} "
                "(expected key=value)"
            )
        pairs.append((key.strip(), value.strip()))
    return ScenarioRef(head, tuple(pairs))


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario builder and its memo of built scenarios.

    ``builder`` receives the converted parameters as keyword arguments.
    ``params`` declares the accepted parameter names and their
    converters; entries without parameters reject any ``k=v`` suffix.
    ``concrete`` marks fixed-corridor scenarios worth enumerating in
    corridor sweeps (the ``compare`` workload and the ``/scenarios``
    default listing) — the parameterized generator is excluded unless
    referenced explicitly.
    """

    name: str
    summary: str
    builder: Callable[..., Scenario]
    params: Mapping[str, Callable[[str], object]] = field(default_factory=dict)
    concrete: bool = True
    _memo: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )

    def normalise(self, ref: ScenarioRef) -> tuple[ScenarioRef, dict]:
        """``ref`` with converted values, and the builder's keyword args.

        The normalised reference keys the memo and the store entry, so
        ``seed=07`` and ``seed=7`` share one scenario, as they share one
        build.
        """
        kwargs = {}
        for key, raw in ref.params:
            converter = self.params.get(key)
            if converter is None:
                allowed = ", ".join(sorted(self.params)) or "none"
                raise ScenarioParamError(
                    f"scenario {self.name!r} does not accept parameter "
                    f"{key!r} (allowed: {allowed})"
                )
            try:
                kwargs[key] = converter(raw)
            except (TypeError, ValueError) as exc:
                raise ScenarioParamError(
                    f"bad value {raw!r} for scenario parameter {key!r}: {exc}"
                ) from exc
        normal = ScenarioRef(
            self.name, tuple((key, repr(value)) for key, value in kwargs.items())
        )
        return normal, kwargs

    def memoised(self, ref: ScenarioRef) -> Scenario | None:
        """The scenario already resolved for normalised ``ref``, if any."""
        with _LOCK:
            scenario = self._memo.get(ref)
            if scenario is not None:
                self._memo.move_to_end(ref)
            return scenario

    def memoise(self, ref: ScenarioRef, scenario: Scenario) -> Scenario:
        """Record ``scenario`` for ``ref``; returns the memoised one.

        When another thread memoised ``ref`` first, its scenario wins and
        is returned, so one reference never maps to two scenarios.
        """
        with _LOCK:
            winner = self._memo.setdefault(ref, scenario)
            self._memo.move_to_end(ref)
            while len(self._memo) > MEMO_SIZE:
                self._memo.popitem(last=False)
            return winner


_REGISTRY: dict[str, ScenarioEntry] = {}
_LOCK = threading.Lock()


def register_scenario(entry: ScenarioEntry) -> ScenarioEntry:
    """Add a builder to the registry (replacing any same-name entry)."""
    with _LOCK:
        _REGISTRY[entry.name] = entry
    return entry


def registered_scenarios() -> tuple[ScenarioEntry, ...]:
    """All registered entries, sorted by name."""
    with _LOCK:
        return tuple(sorted(_REGISTRY.values(), key=lambda entry: entry.name))


def scenario_names(concrete_only: bool = False) -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(
        entry.name
        for entry in registered_scenarios()
        if entry.concrete or not concrete_only
    )


def _decode_scenario(data: bytes) -> Scenario:
    scenario = pickle.loads(data)
    if not isinstance(scenario, Scenario):
        raise TypeError(f"scenario entry holds a {type(scenario).__name__}")
    return scenario


def _encode_scenario(scenario: Scenario) -> bytes:
    # Fingerprint before pickling: the database carries its cached
    # (generation, digest) pair, so a warm process never re-pickles the
    # whole database just to key the engine entry.
    scenario.database.content_digest()
    return pickle.dumps(scenario, protocol=4)


def _build(entry: ScenarioEntry, ref: ScenarioRef, kwargs: dict, store):
    """Load ``ref``'s scenario from ``store``, else build and publish it."""
    if store is None:
        return entry.builder(**kwargs)
    from repro.store.fingerprint import scenario_fingerprint

    fingerprint = scenario_fingerprint(ref.canonical)
    scenario = store.load_entry(fingerprint, "scenario", _decode_scenario)
    if scenario is None:
        scenario = entry.builder(**kwargs)
        store.save_entry(
            fingerprint, "scenario", lambda: _encode_scenario(scenario)
        )
    return scenario


def _normalised(ref: str | ScenarioRef) -> tuple[ScenarioEntry, ScenarioRef, dict]:
    """``ref``'s registry entry, normalised reference and builder args."""
    parsed = parse_scenario_ref(ref)
    with _LOCK:
        entry = _REGISTRY.get(parsed.name)
    if entry is None:
        known = ", ".join(scenario_names())
        raise UnknownScenarioError(
            f"unknown scenario {parsed.name!r} (registered: {known})"
        )
    normal, kwargs = entry.normalise(parsed)
    return entry, normal, kwargs


def normalise_ref(ref: str | ScenarioRef) -> ScenarioRef:
    """``ref`` as the registry keys it, without building anything.

    Every spelling of one scenario (``synthetic:seed=07,links=20`` and
    ``synthetic:links=20,seed=7``) gives the same reference.  Raises
    what :func:`resolve_scenario` raises for an unknown name or a
    parameter that does not convert.
    """
    return _normalised(ref)[1]


def resolve_scenario(ref: str | ScenarioRef, store=None) -> Scenario:
    """Resolve a reference to its (registry-memoised) :class:`Scenario`.

    Two spellings of the same parameters (``synthetic:links=20,seed=7``
    vs ``synthetic:seed=7,links=20``) normalise to the same keyword
    arguments and share one scenario object and one default engine.  On
    a memo miss, a ``store`` (:class:`repro.store.CacheStore`) is asked
    for the built scenario first and receives any scenario the builder
    builds.  The store is then attached to the scenario's default engine,
    which loads the store's entry for it; attaching is idempotent.  The
    store never changes which object comes back:
    ``resolve_scenario(r) is resolve_scenario(r, store=s)``.
    Raises :class:`UnknownScenarioError` for unknown names and
    :class:`ScenarioParamError` for bad parameters.
    """
    entry, normal, kwargs = _normalised(ref)
    scenario = entry.memoised(normal)
    if scenario is None:
        scenario = entry.memoise(normal, _build(entry, normal, kwargs, store))
    if store is not None:
        store.attach(scenario.engine())
    return scenario


#: Parameter converters for ``synthetic:k=v,...`` references.
SYNTHETIC_PARAMS = {
    "seed": int,
    "networks": int,
    "links": int,
    "eras": int,
    "decoys": int,
    "west_lat": float,
    "west_lon": float,
    "east_lat": float,
    "east_lon": float,
}


def _synthetic_scenario(**params) -> Scenario:
    """The ``synthetic`` entry's builder.  It imports the generator module
    only when a synthetic scenario is built, so resolving any other
    scenario, or loading a synthetic one from a store, never loads it."""
    from repro.scenarios.synthetic import synthetic_scenario

    return synthetic_scenario(**params)


def _register_builtins() -> None:
    register_scenario(ScenarioEntry(
        name="paper2020",
        summary="Chicago-New Jersey (CME-NY4/NYSE/NASDAQ), the paper's "
                "calibrated corridor",
        builder=paper2020_scenario,
    ))
    register_scenario(ScenarioEntry(
        name="europe2020",
        summary="London-Frankfurt (LD4-FR2), ~671 km, three synthetic "
                "networks",
        builder=europe2020_scenario,
    ))
    register_scenario(ScenarioEntry(
        name="tokyo-singapore",
        summary="Tokyo-Singapore (TY3-SG1), ~5,314 km long-haul",
        builder=tokyo_singapore_scenario,
    ))
    register_scenario(ScenarioEntry(
        name="synthetic",
        summary="parameterized stress-scale generator "
                "(seed/networks/links/eras/decoys/geography)",
        builder=_synthetic_scenario,
        params=SYNTHETIC_PARAMS,
        concrete=False,
    ))


_register_builtins()
