"""HFTNetView reproduction: HFT microwave networks from FCC ULS filings.

A from-scratch reproduction of *"A Bird's Eye View of the World's Fastest
Networks"* (IMC 2020): a tool that reconstructs licensed high-frequency-
trading microwave networks on the Chicago-New Jersey corridor from FCC
Universal Licensing System data, analyses their latency, redundancy, link
lengths and operating frequencies, and regenerates every table and figure
of the paper's evaluation.

Quickstart::

    from repro.scenarios import resolve_scenario

    scenario = resolve_scenario("paper2020")
    engine = scenario.engine()
    route = engine.route(
        "New Line Networks", scenario.snapshot_date, "CME", "NY4"
    )
    print(f"{route.latency_ms:.5f} ms over {route.tower_count} towers")

Repeated queries (timelines, rankings, sweeps) hit the engine's
snapshot/route caches; ``engine.stats`` reports hit rates.

Subpackages
-----------

``repro.geodesy``   WGS84 geodesics and FCC coordinate formats.
``repro.uls``       The FCC ULS substrate: records, database, searches,
                    dump format, portal simulator, scraper.
``repro.core``      The paper's tool: reconstruction, latency model,
                    routing, timelines, YAML export.
``repro.metrics``   APA, link-length and frequency distributions, rankings.
``repro.radio``     Microwave link engineering (ITU rain model, budgets).
``repro.synth``     Calibrated synthetic corridor data (no FCC access
                    needed) and storm simulation.
``repro.leo``       LEO constellations for the Fig 5 comparison.
``repro.viz``       SVG maps, GeoJSON, figure data files.
``repro.analysis``  One driver per paper table/figure, plus ablations.
"""

from __future__ import annotations

import importlib
import sys

__version__ = "1.0.0"


def _lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple:
    """PEP 562 lazy re-exports: ``(__getattr__, __dir__, __all__)``.

    ``exports`` maps each defining module to the names ``package``
    re-exports from it.  Nothing is imported up front: the first access
    to a name imports its module, and the value is bound in the
    package's namespace so later lookups are plain attribute reads.  A
    name outside the table raises :class:`AttributeError` (so
    ``hasattr`` is False), and ``dir(package)`` lists every export.
    Every package ``__init__`` in ``repro`` but the ``repro.lint``
    tooling builds its public surface this way, so importing a package
    costs nothing until a name is used (DESIGN.md §16).
    """
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__, list(origin)


__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.constants": (
            "APA_SLACK_FACTOR",
            "FIBER_SPEED",
            "MAX_FIBER_TAIL_M",
            "MICROWAVE_SPEED",
            "SPEED_OF_LIGHT",
        ),
        "repro.core.engine": ("CacheStats", "CorridorEngine"),
        "repro.core.corridor": ("CorridorSpec", "chicago_nj_corridor"),
        "repro.core.network": ("HftNetwork", "Route"),
        "repro.core.latency": ("LatencyModel",),
        "repro.core.reconstruction": (
            "NetworkReconstructor",
            "reconstruct_all",
        ),
        "repro.core.yamlio": ("network_from_yaml", "network_to_yaml"),
        "repro.geodesy.earth": ("GeoPoint", "geodesic_distance"),
        "repro.metrics.apa": ("alternate_path_availability",),
        "repro.metrics.rankings": (
            "rank_connected_networks",
            "top_networks_per_path",
        ),
        "repro.synth.scenario": (
            "Scenario",
            "build_scenario",
            "paper2020_scenario",
        ),
        "repro.uls.database": ("UlsDatabase",),
        "repro.uls.portal": ("UlsPortal",),
        "repro.uls.scraper": ("UlsScraper",),
    },
)
__all__.append("__version__")
