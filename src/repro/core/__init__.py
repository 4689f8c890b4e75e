"""Core library: reconstruction of HFT networks from license filings.

This subpackage is the paper's primary contribution: a tool that turns raw
FCC license records into analysable network graphs at any date in the past
(§2.3), plus the latency model and routing machinery the analyses rely on.

Typical usage goes through the engine, which caches snapshots and routes
across repeated queries (the cache-free :class:`NetworkReconstructor`,
which runs the same columnar kernel, remains available for one-off
use)::

    from repro.core import CorridorEngine
    from repro.scenarios import resolve_scenario

    scenario = resolve_scenario("paper2020")
    engine = CorridorEngine(scenario.database, scenario.corridor)
    route = engine.route(
        "New Line Networks", datetime.date(2020, 4, 1), "CME", "NY4"
    )
    print(route.latency_ms, route.tower_count)
    print(engine.stats.describe())
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.core.columnar": ("reconstruct_columnar",),
        "repro.core.engine": ("CacheStats", "CorridorEngine"),
        "repro.core.latency": ("LatencyModel",),
        "repro.core.network": (
            "DataCenter",
            "HftNetwork",
            "MicrowaveLink",
            "Route",
            "Tower",
        ),
        "repro.core.corridor": ("CorridorSpec",),
        "repro.core.reconstruction": (
            "NetworkReconstructor",
            "reconstruct_all",
        ),
        "repro.core.routing": (
            "edges_within_latency_bound",
            "enumerate_paths_within_bound",
        ),
        "repro.core.timeline": (
            "LicenseCountSeries",
            "TimelinePoint",
            "latency_timeline",
            "license_count_timeline",
            "yearly_snapshot_dates",
        ),
        "repro.core.yamlio": ("network_from_yaml", "network_to_yaml"),
    },
)
