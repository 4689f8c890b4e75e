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

from repro.core.columnar import reconstruct_columnar
from repro.core.engine import CacheStats, CorridorEngine
from repro.core.latency import LatencyModel
from repro.core.network import (
    DataCenter,
    HftNetwork,
    MicrowaveLink,
    Route,
    Tower,
)
from repro.core.corridor import CorridorSpec
from repro.core.reconstruction import NetworkReconstructor, reconstruct_all
from repro.core.routing import (
    edges_within_latency_bound,
    enumerate_paths_within_bound,
)
from repro.core.timeline import (
    LicenseCountSeries,
    TimelinePoint,
    latency_timeline,
    license_count_timeline,
    yearly_snapshot_dates,
)
from repro.core.yamlio import network_from_yaml, network_to_yaml

__all__ = [
    "CacheStats",
    "CorridorEngine",
    "LatencyModel",
    "DataCenter",
    "HftNetwork",
    "MicrowaveLink",
    "Route",
    "Tower",
    "CorridorSpec",
    "NetworkReconstructor",
    "reconstruct_all",
    "reconstruct_columnar",
    "edges_within_latency_bound",
    "enumerate_paths_within_bound",
    "LicenseCountSeries",
    "TimelinePoint",
    "latency_timeline",
    "license_count_timeline",
    "yearly_snapshot_dates",
    "network_from_yaml",
    "network_to_yaml",
]
