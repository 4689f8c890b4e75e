"""The scenario registry: ``NAME[:k=v,...]`` references → scenarios.

A :class:`ScenarioRef` is the parsed form of the reference string the CLI
(``--scenario``) and the query service (``?scenario=``) accept: a
registered builder name plus optional ``key=value`` parameters.  The
reference is canonicalised (parameters sorted by key) so equal references
compare and hash equal and two spellings of the same parameters build the
same keyword arguments.  Caching lives in the *builders* (each built-in
is ``lru_cache``'d), not here — every caller of the same reference shares
one :class:`~repro.synth.scenario.Scenario` and therefore one warm
default engine, and ``paper2020_scenario.cache_clear()`` drops the
registry's view too, instead of leaving a stale scenario behind a second
cache layer.

Built-in entries:

``paper2020``
    The calibrated Chicago–New Jersey scenario (the default everywhere;
    resolves to the same cached singleton as
    :func:`repro.synth.scenario.paper2020_scenario`).
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

import threading
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
    """One registered scenario builder.

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

    def build(self, ref: ScenarioRef) -> Scenario:
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
        return self.builder(**kwargs)


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


def resolve_scenario(ref: str | ScenarioRef, store=None) -> Scenario:
    """Resolve a reference to its (builder-cached) :class:`Scenario`.

    Two spellings of the same parameters (``synthetic:links=20,seed=7``
    vs ``synthetic:seed=7,links=20``) canonicalise to the same keyword
    arguments and — because every built-in builder memoises — share one
    scenario object and one default engine.  A ``store``
    (:class:`repro.store.CacheStore`) is attached to that default engine,
    which loads the store's entry for it; attaching is idempotent.
    Raises :class:`UnknownScenarioError` for unknown names and
    :class:`ScenarioParamError` for bad parameters.
    """
    parsed = parse_scenario_ref(ref)
    with _LOCK:
        entry = _REGISTRY.get(parsed.name)
    if entry is None:
        known = ", ".join(scenario_names())
        raise UnknownScenarioError(
            f"unknown scenario {parsed.name!r} (registered: {known})"
        )
    scenario = entry.build(parsed)
    if store is not None:
        store.attach(scenario.engine())
    return scenario


def _register_builtins() -> None:
    from repro.scenarios.synthetic import SYNTHETIC_PARAMS, synthetic_scenario

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
        builder=synthetic_scenario,
        params=SYNTHETIC_PARAMS,
        concrete=False,
    ))


_register_builtins()
