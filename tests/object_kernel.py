"""The object kernel: the per-object reconstruction the columnar kernel replays.

Production reconstruction has one path, :func:`repro.core.columnar
.reconstruct_columnar` over a :class:`~repro.uls.columnar
.ColumnarLicenseStore`, and one snapshot-key resolution, the temporal
index.  This module keeps the straightforward implementations they were
derived from, as test oracles:

* :class:`EndpointStitcher` / :func:`stitch_licenses` — endpoint
  clustering and link merging, walking ``License`` → ``TowerLocation`` →
  ``MicrowavePath`` objects and solving Vincenty per probe;
* :func:`attach_fiber_tails` — data-center fiber tails, one geodesic per
  (data center, tower) pair;
* :func:`reconstruct` / :func:`reconstruct_licensee` — the two composed
  into a network, exactly as the paper describes the tool (§2.3);
* :func:`scan_fingerprint` — a licensee's active-license ids by one
  ``License.is_active`` test per filing, the linear scan the temporal
  index replaced.

The equivalence tests hold the production paths to these element-wise:
same towers, links and tails, same ids, ordering and floats.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterable

from repro.constants import MAX_FIBER_TAIL_M, STITCH_TOLERANCE_M
from repro.core.corridor import CorridorSpec, DataCenterSite
from repro.core.network import FiberTail, HftNetwork, MicrowaveLink, Tower
from repro.core.reconstruction import NetworkReconstructor
from repro.geodesy import GeoPoint, geodesic_distance
from repro.geodesy.coordinates import coordinate_key
from repro.uls.database import UlsDatabase
from repro.uls.records import License, TowerLocation, active_licenses


@dataclass
class _Cluster:
    """A growing group of endpoints believed to be one physical tower."""

    anchor: GeoPoint
    ground_elevation_m: float
    structure_height_m: float
    site_name: str
    license_ids: set[str]


class EndpointStitcher:
    """Clusters license endpoints into towers.

    Endpoints within ``tolerance_m`` of a cluster's anchor join that
    cluster; the anchor is the first-seen coordinate.  A spatial grid
    keyed on :func:`coordinate_key` keeps matching O(1) per endpoint.
    """

    def __init__(self, tolerance_m: float = STITCH_TOLERANCE_M) -> None:
        if tolerance_m <= 0.0:
            raise ValueError("tolerance must be positive")
        self.tolerance_m = tolerance_m
        self._clusters: list[_Cluster] = []
        self._grid: dict[tuple[int, int], list[int]] = {}

    def add_endpoint(self, location: TowerLocation, license_id: str) -> int:
        """Register an endpoint; returns its cluster index."""
        index = self._find_cluster(location.point)
        if index is None:
            index = len(self._clusters)
            self._clusters.append(
                _Cluster(
                    anchor=location.point,
                    ground_elevation_m=location.ground_elevation_m,
                    structure_height_m=location.structure_height_m,
                    site_name=location.site_name,
                    license_ids={license_id},
                )
            )
            key = coordinate_key(location.point, self.tolerance_m)
            self._grid.setdefault(key, []).append(index)
        else:
            cluster = self._clusters[index]
            cluster.license_ids.add(license_id)
            # Anchor and site name are first-seen; the numeric fields
            # max-merge so the result is independent of arrival order.
            if not cluster.site_name and location.site_name:
                cluster.site_name = location.site_name
            if location.structure_height_m > cluster.structure_height_m:
                cluster.structure_height_m = location.structure_height_m
            if location.ground_elevation_m > cluster.ground_elevation_m:
                cluster.ground_elevation_m = location.ground_elevation_m
        return index

    def _find_cluster(self, point: GeoPoint) -> int | None:
        center = coordinate_key(point, self.tolerance_m)
        for d_lat in (-1, 0, 1):
            for d_lon in (-1, 0, 1):
                key = (center[0] + d_lat, center[1] + d_lon)
                for index in self._grid.get(key, ()):
                    anchor = self._clusters[index].anchor
                    if geodesic_distance(point, anchor) <= self.tolerance_m:
                        return index
        return None

    def towers(self) -> tuple[list[Tower], dict[int, str]]:
        """Finalise clusters into towers with stable, geography-sorted ids.

        Returns the tower list and a cluster-index → tower-id mapping.
        """
        order = sorted(
            range(len(self._clusters)),
            key=lambda i: (
                self._clusters[i].anchor.longitude,
                self._clusters[i].anchor.latitude,
            ),
        )
        towers: list[Tower] = []
        index_to_id: dict[int, str] = {}
        for rank, cluster_index in enumerate(order, start=1):
            cluster = self._clusters[cluster_index]
            tower_id = f"twr-{rank:04d}"
            index_to_id[cluster_index] = tower_id
            towers.append(
                Tower(
                    tower_id=tower_id,
                    point=cluster.anchor,
                    ground_elevation_m=cluster.ground_elevation_m,
                    structure_height_m=cluster.structure_height_m,
                    site_name=cluster.site_name,
                    license_ids=tuple(sorted(cluster.license_ids)),
                )
            )
        return towers, index_to_id


def stitch_licenses(
    licenses: list[License], tolerance_m: float = STITCH_TOLERANCE_M
) -> tuple[list[Tower], list[MicrowaveLink]]:
    """Stitch licenses into towers and merged microwave links.

    Links filed several times over one tower pair merge into a single
    link carrying the union of frequencies and license ids; its length is
    the geodesic between the canonical tower anchors.
    """
    stitcher = EndpointStitcher(tolerance_m)
    endpoint_clusters: dict[tuple[str, int], int] = {}
    for lic in licenses:
        for number, location in lic.locations.items():
            endpoint_clusters[(lic.license_id, number)] = stitcher.add_endpoint(
                location, lic.license_id
            )

    towers, index_to_id = stitcher.towers()
    tower_points = {tower.tower_id: tower.point for tower in towers}

    merged: dict[frozenset[str], dict] = {}
    for lic in licenses:
        for path in lic.paths:
            tx_id = index_to_id[endpoint_clusters[(lic.license_id, path.tx_location_number)]]
            rx_id = index_to_id[endpoint_clusters[(lic.license_id, path.rx_location_number)]]
            if tx_id == rx_id:
                # Both endpoints stitched to one tower: degenerate filing.
                continue
            entry = merged.setdefault(
                frozenset((tx_id, rx_id)), {"frequencies": set(), "licenses": set()}
            )
            entry["frequencies"].update(path.frequencies_mhz)
            entry["licenses"].add(lic.license_id)

    links: list[MicrowaveLink] = []
    for key in sorted(merged, key=sorted):
        tower_a, tower_b = sorted(key)
        entry = merged[key]
        links.append(
            MicrowaveLink(
                tower_a=tower_a,
                tower_b=tower_b,
                length_m=geodesic_distance(tower_points[tower_a], tower_points[tower_b]),
                frequencies_mhz=tuple(sorted(entry["frequencies"])),
                license_ids=tuple(sorted(entry["licenses"])),
            )
        )
    return towers, links


def attach_fiber_tails(
    data_centers: Iterable[DataCenterSite],
    towers: Iterable[Tower],
    max_tail_m: float = MAX_FIBER_TAIL_M,
    mode: str = "nearest",
) -> list[FiberTail]:
    """Fiber tails from data centers to in-range towers.

    ``"nearest"`` keeps each data center's closest tower within range;
    ``"all"`` keeps every one.  Tails sort by (data center, length).
    """
    if max_tail_m < 0.0:
        raise ValueError("max tail length cannot be negative")
    if mode not in ("nearest", "all"):
        raise ValueError(f"unknown fiber attachment mode: {mode!r}")
    tails: list[FiberTail] = []
    tower_list = list(towers)
    for dc in data_centers:
        in_range = []
        for tower in tower_list:
            length = geodesic_distance(dc.point, tower.point)
            if 0.0 < length <= max_tail_m:
                in_range.append(
                    FiberTail(data_center=dc.name, tower_id=tower.tower_id, length_m=length)
                )
        in_range.sort(key=lambda tail: (tail.length_m, tail.tower_id))
        if mode == "nearest":
            in_range = in_range[:1]
        tails.extend(in_range)
    tails.sort(key=lambda tail: (tail.data_center, tail.length_m, tail.tower_id))
    return tails


def reconstruct(
    recon: NetworkReconstructor,
    licenses: Iterable[License],
    on_date: dt.date,
    licensee: str,
) -> HftNetwork:
    """The network ``licenses`` form on ``on_date``, under ``recon``'s
    corridor and parameters, built one object at a time."""
    active = active_licenses(list(licenses), on_date)
    towers, links = stitch_licenses(active, recon.stitch_tolerance_m)
    corridor: CorridorSpec = recon.corridor
    tails = attach_fiber_tails(
        corridor.data_centers, towers, recon.max_fiber_tail_m, recon.fiber_mode
    )
    return HftNetwork(
        licensee=licensee,
        as_of=on_date,
        towers=towers,
        links=links,
        fiber_tails=tails,
        data_centers=corridor.data_centers,
        latency_model=recon.latency_model,
    )


def reconstruct_licensee(
    recon: NetworkReconstructor,
    database: UlsDatabase,
    licensee: str,
    on_date: dt.date,
) -> HftNetwork:
    """One licensee's network from a database, built one object at a time."""
    return reconstruct(recon, database.licenses_for(licensee), on_date, licensee)


def scan_fingerprint(
    database: UlsDatabase, licensee: str, on_date: dt.date
) -> frozenset[str]:
    """``licensee``'s active-license ids: one activity test per filing."""
    return frozenset(
        lic.license_id
        for lic in database.licenses_for(licensee)
        if lic.is_active(on_date)
    )
