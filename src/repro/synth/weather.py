"""Rain-storm simulation along the corridor (§5's reliability argument).

A :class:`Storm` is a set of Gaussian rain cells.  Applying a storm to a
reconstructed network removes every microwave link whose rain attenuation
(ITU model, at the link's *lowest* licensed frequency — radios fall back
to their most robust channel) exceeds its clear-air fade margin.  The
surviving graph shows which network still delivers low latency in bad
weather: the experiment behind "a more reliable network may be faster at
other times".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.network import HftNetwork
from repro.geodesy import GeoPoint, geodesic_distance, geodesic_interpolate
from repro.radio.budget import LinkBudget
from repro.radio.itu import rain_attenuation_db

if TYPE_CHECKING:  # pragma: no cover - networkx loads only where a graph is used
    import networkx as nx


@dataclass(frozen=True, slots=True)
class RainCell:
    """A circular rain cell with a Gaussian intensity profile."""

    center: GeoPoint
    radius_km: float
    peak_rate_mm_h: float

    def __post_init__(self) -> None:
        if self.radius_km <= 0.0:
            raise ValueError("cell radius must be positive")
        if self.peak_rate_mm_h < 0.0:
            raise ValueError("rain rate cannot be negative")

    def rate_at(self, point: GeoPoint) -> float:
        """Rain rate at ``point``, mm/h (Gaussian falloff, ~0 beyond 3σ)."""
        distance_km = geodesic_distance(self.center, point) / 1000.0
        return self.peak_rate_mm_h * math.exp(-((distance_km / self.radius_km) ** 2))


@dataclass(frozen=True)
class Storm:
    """A collection of rain cells."""

    cells: tuple[RainCell, ...]

    def rate_at(self, point: GeoPoint) -> float:
        """Total rain rate at a point (cells superpose)."""
        return sum(cell.rate_at(point) for cell in self.cells)

    def max_rate_over_link(
        self, a: GeoPoint, b: GeoPoint, samples: int = 9
    ) -> float:
        """The worst rain rate along the a–b hop (sampled).

        An odd default sample count keeps the hop midpoint in the sample
        set, so a cell centred mid-hop is never missed.
        """
        fractions = [i / (samples - 1) for i in range(samples)]
        points = geodesic_interpolate(a, b, fractions)
        return max(self.rate_at(point) for point in points)


def random_storm(
    seed: int,
    along: tuple[GeoPoint, GeoPoint],
    n_cells: int = 3,
    radius_km: tuple[float, float] = (15.0, 50.0),
    peak_mm_h: tuple[float, float] = (40.0, 140.0),
    lateral_km: float = 60.0,
) -> Storm:
    """A seeded storm with cells scattered along a corridor geodesic."""
    if n_cells < 1:
        raise ValueError("a storm needs at least one cell")
    rng = random.Random(seed)
    start, end = along
    cells = []
    for _ in range(n_cells):
        fraction = rng.uniform(0.05, 0.95)
        (on_path,) = geodesic_interpolate(start, end, [fraction])
        center = on_path.destination(
            rng.uniform(0.0, 360.0), rng.uniform(0.0, lateral_km * 1000.0)
        )
        cells.append(
            RainCell(
                center=center,
                radius_km=rng.uniform(*radius_km),
                peak_rate_mm_h=rng.uniform(*peak_mm_h),
            )
        )
    return Storm(cells=tuple(cells))


def apply_storm(
    network: HftNetwork,
    storm: Storm,
    budget: LinkBudget | None = None,
) -> nx.Graph:
    """The network's graph with rain-faded microwave links removed.

    Each link is evaluated at its lowest licensed frequency (the most
    rain-robust channel it may fall back to); fiber tails never fail.
    """
    budget = budget or LinkBudget()
    graph = network.graph.copy()
    dead: list[tuple] = []
    for u, v, data in graph.edges(data=True):
        if data["medium"] != "microwave":
            continue
        frequencies = data["frequencies_mhz"]
        frequency_ghz = (min(frequencies) / 1000.0) if frequencies else 11.0
        distance_km = data["length_m"] / 1000.0
        rate = storm.max_rate_over_link(
            graph.nodes[u]["point"], graph.nodes[v]["point"]
        )
        margin = budget.fade_margin_db(frequency_ghz, distance_km)
        if margin <= 0.0 or rain_attenuation_db(frequency_ghz, distance_km, rate) > margin:
            dead.append((u, v))
    graph.remove_edges_from(dead)
    return graph


def storm_latency_ms(
    network: HftNetwork,
    storm: Storm,
    source: str,
    target: str,
    budget: LinkBudget | None = None,
) -> float | None:
    """End-to-end latency under a storm, or None if disconnected."""
    import networkx as nx

    graph = apply_storm(network, storm, budget)
    try:
        latency = nx.dijkstra_path_length(graph, source, target, weight="latency_s")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
    return latency * 1e3
