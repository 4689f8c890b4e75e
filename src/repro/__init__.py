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

from repro.constants import (
    APA_SLACK_FACTOR,
    FIBER_SPEED,
    MAX_FIBER_TAIL_M,
    MICROWAVE_SPEED,
    SPEED_OF_LIGHT,
)
from repro.core import (
    CacheStats,
    CorridorEngine,
    CorridorSpec,
    HftNetwork,
    LatencyModel,
    NetworkReconstructor,
    Route,
    network_from_yaml,
    network_to_yaml,
    reconstruct_all,
)
from repro.core.corridor import chicago_nj_corridor
from repro.geodesy import GeoPoint, geodesic_distance
from repro.metrics import (
    alternate_path_availability,
    rank_connected_networks,
    top_networks_per_path,
)
from repro.synth.scenario import Scenario, build_scenario, paper2020_scenario
from repro.uls import UlsDatabase, UlsPortal, UlsScraper

__version__ = "1.0.0"

__all__ = [
    "APA_SLACK_FACTOR",
    "FIBER_SPEED",
    "MAX_FIBER_TAIL_M",
    "MICROWAVE_SPEED",
    "SPEED_OF_LIGHT",
    "CacheStats",
    "CorridorEngine",
    "CorridorSpec",
    "HftNetwork",
    "LatencyModel",
    "NetworkReconstructor",
    "Route",
    "network_from_yaml",
    "network_to_yaml",
    "reconstruct_all",
    "chicago_nj_corridor",
    "GeoPoint",
    "geodesic_distance",
    "alternate_path_availability",
    "rank_connected_networks",
    "top_networks_per_path",
    "Scenario",
    "build_scenario",
    "paper2020_scenario",
    "UlsDatabase",
    "UlsPortal",
    "UlsScraper",
    "__version__",
]
