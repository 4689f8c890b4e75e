"""Scoring a design with the paper's own metrics.

A designed trunk + bypass set is packaged as an
:class:`~repro.core.network.HftNetwork` (the designed band's channels on
the trunk, 6 GHz on the bypasses) and measured exactly like the
reconstructed HFT networks: end-to-end latency and stretch, APA at the
paper's 5% slack, and survival across a seeded storm ensemble.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

from repro.constants import SPEED_OF_LIGHT
from repro.core.apa import alternate_path_availability
from repro.core.corridor import DataCenterSite
from repro.core.network import FiberTail, HftNetwork, MicrowaveLink, Tower
from repro.geodesy import GeoPoint, geodesic_distance
from repro.synth.specs import CHANNEL_PLANS_MHZ
from repro.synth.weather import random_storm, storm_latency_ms
from repro.design.redundancy import Bypass
from repro.design.trunk import TrunkDesign


@dataclass(frozen=True)
class NetworkDesign:
    """A complete design: trunk, bypasses, and endpoint data centers."""

    trunk: TrunkDesign
    bypasses: tuple[Bypass, ...]
    west: DataCenterSite
    east: DataCenterSite

    @property
    def total_cost(self) -> float:
        return self.trunk.total_cost + sum(
            bypass.site.annual_cost for bypass in self.bypasses
        )


@dataclass(frozen=True)
class DesignReport:
    """Measured properties of a design."""

    latency_ms: float
    stretch: float
    apa: float
    tower_count: int
    total_cost: float
    storm_survival: float
    median_hop_km: float


def _channels_for(band_ghz: float) -> tuple[float, ...]:
    plan = CHANNEL_PLANS_MHZ.get(f"{band_ghz:.0f}GHz")
    if plan is None:
        return (band_ghz * 1000.0,)
    return plan[:2]


def design_to_network(design: NetworkDesign, as_of: dt.date | None = None) -> HftNetwork:
    """Materialise a design as a routable network."""
    as_of = as_of or dt.date(2020, 4, 1)
    towers = []
    for site in design.trunk.sites:
        towers.append(Tower(site.site_id, site.point, structure_height_m=90.0))
    for bypass in design.bypasses:
        towers.append(
            Tower(bypass.site.site_id, bypass.site.point, structure_height_m=90.0)
        )

    trunk_channels = _channels_for(design.trunk.band_ghz)
    links = []
    for a, b in zip(design.trunk.sites, design.trunk.sites[1:]):
        links.append(
            MicrowaveLink(
                a.site_id,
                b.site_id,
                geodesic_distance(a.point, b.point),
                frequencies_mhz=trunk_channels,
            )
        )
    for bypass in design.bypasses:
        previous = design.trunk.sites[bypass.around_index - 1]
        nxt = design.trunk.sites[bypass.around_index + 1]
        channels = _channels_for(bypass.band_ghz)
        for endpoint in (previous, nxt):
            links.append(
                MicrowaveLink(
                    endpoint.site_id,
                    bypass.site.site_id,
                    geodesic_distance(endpoint.point, bypass.site.point),
                    frequencies_mhz=channels,
                )
            )

    tails = [
        FiberTail(
            design.west.name,
            design.trunk.sites[0].site_id,
            geodesic_distance(design.west.point, design.trunk.sites[0].point),
        ),
        FiberTail(
            design.east.name,
            design.trunk.sites[-1].site_id,
            geodesic_distance(design.east.point, design.trunk.sites[-1].point),
        ),
    ]
    return HftNetwork(
        licensee="Designed Network",
        as_of=as_of,
        towers=towers,
        links=links,
        fiber_tails=tails,
        data_centers=[design.west, design.east],
    )


def evaluate_design(
    design: NetworkDesign,
    n_storms: int = 20,
    storm_seed_base: int = 1000,
) -> DesignReport:
    """Measure a design with the paper's metrics plus storm survival."""
    network = design_to_network(design)
    source, target = design.west.name, design.east.name
    route = network.lowest_latency_route(source, target)
    if route is None:
        raise ValueError("designed network is not connected")
    geodesic = geodesic_distance(design.west.point, design.east.point)
    apa = alternate_path_availability(network, route)

    survived = 0
    corridor = (design.west.point, design.east.point)
    for seed in range(n_storms):
        storm = random_storm(
            storm_seed_base + seed, corridor, n_cells=4, peak_mm_h=(60.0, 170.0)
        )
        if storm_latency_ms(network, storm, source, target) is not None:
            survived += 1

    hops = sorted(design.trunk.hop_lengths_km())
    return DesignReport(
        latency_ms=route.latency_ms,
        stretch=route.length_m / geodesic,
        apa=apa,
        tower_count=route.tower_count,
        total_cost=design.total_cost,
        storm_survival=survived / n_storms,
        median_hop_km=hops[(len(hops) - 1) // 2],
    )


def corridor_endpoints(
    west_point: GeoPoint, east_point: GeoPoint
) -> tuple[DataCenterSite, DataCenterSite]:
    """Convenience data-center pair for a generic two-point design."""
    return (
        DataCenterSite("WEST", west_point),
        DataCenterSite("EAST", east_point),
    )


def latency_lower_bound_ms(west: GeoPoint, east: GeoPoint) -> float:
    """The c-speed geodesic bound the race converges towards."""
    return geodesic_distance(west, east) / SPEED_OF_LIGHT * 1e3
