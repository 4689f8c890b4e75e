"""Latency comparison: terrestrial microwave vs LEO vs fiber (Fig 5).

Three models, all per one-way path between two ground points:

* **Microwave**: geodesic distance at c times a small path-stretch factor
  (HFT networks achieve ~1.001–1.05; see Table 1).
* **LEO**: up + down slant ranges plus the inter-satellite path, all at c.
  Two variants: an exact route over a Walker shell's +Grid, and a closed
  form lower bound (up/down at minimum slant plus great-circle at
  altitude) useful for sweeps.
* **Fiber**: geodesic distance times a route-stretch factor at 2c/3
  (terrestrial fiber routes are circuitous; stretch ~1.2–1.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import FIBER_SPEED, SPEED_OF_LIGHT
from repro.geodesy import GeoPoint, geodesic_destination, geodesic_distance
from repro.geodesy.earth import EARTH_MEAN_RADIUS_M
from repro.leo.constellation import Constellation, WalkerShell, ecef_of
from repro.leo.isl import isl_graph

#: Default microwave path stretch: Table 1's fastest network runs ~0.15%
#: above the geodesic.
DEFAULT_MICROWAVE_STRETCH = 1.0015

#: Default fiber route stretch over long-haul routes.
DEFAULT_FIBER_STRETCH = 1.35


def microwave_latency_s(
    distance_m: float, stretch: float = DEFAULT_MICROWAVE_STRETCH
) -> float:
    """Terrestrial microwave one-way latency over a ground distance."""
    if distance_m < 0.0:
        raise ValueError("distance cannot be negative")
    if stretch < 1.0:
        raise ValueError("stretch cannot be below 1")
    return distance_m * stretch / SPEED_OF_LIGHT


def fiber_latency_s(distance_m: float, stretch: float = DEFAULT_FIBER_STRETCH) -> float:
    """Terrestrial fiber one-way latency over a ground distance."""
    if distance_m < 0.0:
        raise ValueError("distance cannot be negative")
    if stretch < 1.0:
        raise ValueError("stretch cannot be below 1")
    return distance_m * stretch / FIBER_SPEED


def leo_lower_bound_s(distance_m: float, altitude_m: float) -> float:
    """Optimistic LEO latency over a ground distance (ideal satellites).

    Minimises, over the number of satellite touches k, the length of the
    symmetric k-bounce path: ground → satellite → … → satellite → ground
    with ideally placed satellites on the shell.  k=1 captures the
    single-bounce geometry that dominates short distances; k→∞ tends to
    "up + shell arc + down", the long-haul regime.  Real routes (discrete
    constellations, elevation masks, +Grid detours) are slower, so this
    bound makes the Fig-5 comparison *conservative in LEO's favour* — if
    microwave beats the bound, it beats any real constellation.
    """
    if distance_m < 0.0 or altitude_m <= 0.0:
        raise ValueError("distance must be non-negative, altitude positive")
    r_ground = EARTH_MEAN_RADIUS_M
    r_shell = EARTH_MEAN_RADIUS_M + altitude_m
    theta = distance_m / EARTH_MEAN_RADIUS_M
    best = math.inf
    for k in range(1, 201):
        half_angle = theta / (2.0 * k)
        slant = math.sqrt(
            r_ground**2
            + r_shell**2
            - 2.0 * r_ground * r_shell * math.cos(half_angle)
        )
        inter_satellite = 2.0 * r_shell * math.sin(half_angle)
        length = 2.0 * slant + (k - 1) * inter_satellite
        best = min(best, length)
    return best / SPEED_OF_LIGHT


def constellation_latency_s(
    constellation: Constellation,
    source: GeoPoint,
    target: GeoPoint,
    min_elevation_deg: float = 25.0,
    gateway_candidates: int = 3,
) -> float | None:
    """Exact one-way latency over a Walker shell's +Grid, or None.

    Both endpoints attach to their best few visible satellites; the route
    is the lowest-latency combination of up-link, ISL path and down-link.
    Returns None when either endpoint sees no satellite above the mask.
    """
    import networkx as nx

    up = constellation.visible_from(source, min_elevation_deg)[:gateway_candidates]
    down = constellation.visible_from(target, min_elevation_deg)[:gateway_candidates]
    if not up or not down:
        return None
    graph = isl_graph(constellation)
    best: float | None = None
    down_keys = {sat.key: slant for sat, slant in down}
    for sat, up_slant in up:
        lengths = nx.single_source_dijkstra_path_length(
            graph, sat.key, weight="latency_s"
        )
        for key, down_slant in down_keys.items():
            isl_latency = lengths.get(key)
            if isl_latency is None:
                continue
            total = (up_slant + down_slant) / SPEED_OF_LIGHT + isl_latency
            if best is None or total < best:
                best = total
    return best


@dataclass(frozen=True, slots=True)
class ComparisonPoint:
    """One row of the Fig-5 comparison sweep."""

    distance_km: float
    microwave_ms: float
    leo_550_ms: float
    leo_300_ms: float
    fiber_ms: float

    @property
    def microwave_beats_leo(self) -> bool:
        return self.microwave_ms < min(self.leo_550_ms, self.leo_300_ms)

    @property
    def leo_beats_fiber(self) -> bool:
        return min(self.leo_550_ms, self.leo_300_ms) < self.fiber_ms


def sweep_distances(
    distances_km: list[float],
    microwave_stretch: float = DEFAULT_MICROWAVE_STRETCH,
    fiber_stretch: float = DEFAULT_FIBER_STRETCH,
) -> list[ComparisonPoint]:
    """The Fig-5 series: MW vs LEO (550/300 km) vs fiber over distance."""
    points = []
    for distance_km in distances_km:
        distance_m = distance_km * 1000.0
        points.append(
            ComparisonPoint(
                distance_km=distance_km,
                microwave_ms=microwave_latency_s(distance_m, microwave_stretch) * 1e3,
                leo_550_ms=leo_lower_bound_s(distance_m, 550_000.0) * 1e3,
                leo_300_ms=leo_lower_bound_s(distance_m, 300_000.0) * 1e3,
                fiber_ms=fiber_latency_s(distance_m, fiber_stretch) * 1e3,
            )
        )
    return points


def leo_fiber_crossover_km(
    altitude_m: float,
    fiber_stretch: float = DEFAULT_FIBER_STRETCH,
    low_km: float = 10.0,
    high_km: float = 30_000.0,
) -> float:
    """Ground distance beyond which the LEO bound beats fiber (bisection)."""
    def leo_minus_fiber(distance_km: float) -> float:
        distance_m = distance_km * 1000.0
        return leo_lower_bound_s(distance_m, altitude_m) - fiber_latency_s(
            distance_m, fiber_stretch
        )

    if leo_minus_fiber(high_km) > 0.0:
        return math.inf
    if leo_minus_fiber(low_km) < 0.0:
        return low_km
    for _ in range(80):
        mid = (low_km + high_km) / 2.0
        if leo_minus_fiber(mid) > 0.0:
            low_km = mid
        else:
            high_km = mid
    return (low_km + high_km) / 2.0


def transatlantic_endpoints() -> tuple[GeoPoint, GeoPoint]:
    """Frankfurt and Washington DC — the HFT-relevant oceanic segment the
    paper cites from prior work (§6)."""
    return (GeoPoint(50.1109, 8.6821), GeoPoint(38.9072, -77.0369))
