"""Corridor specification: the data centers networks connect.

The paper's corridor runs between the CME data center in Aurora, IL and
three New Jersey data centers (Equinix NY4 in Secaucus, NYSE in Mahwah,
NASDAQ in Carteret).  The coordinates below are calibrated so the WGS84
geodesic distances match the paper's Table 2 figures (1,186 / 1,174 /
1,176 km) to within ~100 m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geodesy import GeoPoint, geodesic_distance


@dataclass(frozen=True, slots=True)
class DataCenterSite:
    """A trading data center: name and location."""

    name: str
    point: GeoPoint

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("data center name must be non-empty")

    # Fast pickle path (see GeoPoint.__getstate__): every network value
    # in a store entry is its own pickle and carries its data centers.
    def __getstate__(self):
        return (self.name, self.point)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "name", state[0])
        object.__setattr__(self, "point", state[1])


@dataclass(frozen=True)
class CorridorSpec:
    """The set of data centers and the trading paths between them.

    ``west`` is the single western anchor (CME); ``east`` lists the
    eastern data centers.  ``paths`` enumerates the (west, east) pairs the
    analyses rank networks on.
    """

    west: DataCenterSite
    east: tuple[DataCenterSite, ...]

    def __post_init__(self) -> None:
        if not self.east:
            raise ValueError("corridor needs at least one eastern data center")
        names = [self.west.name] + [dc.name for dc in self.east]
        if len(set(names)) != len(names):
            raise ValueError("data center names must be unique")

    @property
    def data_centers(self) -> tuple[DataCenterSite, ...]:
        return (self.west,) + self.east

    @property
    def paths(self) -> tuple[tuple[str, str], ...]:
        """(west, east) data center name pairs, in declaration order."""
        return tuple((self.west.name, dc.name) for dc in self.east)

    def resolve_path(
        self, source: str | None = None, target: str | None = None
    ) -> tuple[str, str]:
        """Fill unspecified endpoints from the primary (first) path.

        Drivers default ``source``/``target`` to ``None`` and resolve
        through this, so every workload runs on any corridor without
        callers naming its data centers; the paper corridor's primary
        path is CME–NY4.
        """
        west, east = self.paths[0]
        return (
            source if source is not None else west,
            target if target is not None else east,
        )

    def site(self, name: str) -> DataCenterSite:
        for dc in self.data_centers:
            if dc.name == name:
                return dc
        raise KeyError(f"unknown data center: {name!r}")

    def geodesic_m(self, west_name: str, east_name: str) -> float:
        """Geodesic distance between two named data centers, metres."""
        return geodesic_distance(self.site(west_name).point, self.site(east_name).point)


#: CME Globex data center, Aurora, IL (western anchor).
CME = DataCenterSite("CME", GeoPoint(41.7580, -88.1801))

#: Equinix NY4, Secaucus, NJ.
NY4 = DataCenterSite("NY4", GeoPoint(40.7773, -74.0700))

#: NYSE data center, Mahwah, NJ.
NYSE = DataCenterSite("NYSE", GeoPoint(41.0887, -74.1486))

#: NASDAQ data center, Carteret, NJ.
NASDAQ = DataCenterSite("NASDAQ", GeoPoint(40.5838, -74.2370))


def chicago_nj_corridor() -> CorridorSpec:
    """The paper's Chicago–New Jersey corridor (CME ↔ NY4/NYSE/NASDAQ)."""
    return CorridorSpec(west=CME, east=(NY4, NYSE, NASDAQ))


#: Equinix LD4, Slough, UK — the western anchor of Europe's busiest HFT
#: microwave corridor.
LD4 = DataCenterSite("LD4", GeoPoint(51.5227, -0.6310))

#: Equinix FR2, Frankfurt, Germany.
FR2 = DataCenterSite("FR2", GeoPoint(50.0992, 8.6323))


def london_frankfurt_corridor() -> CorridorSpec:
    """The London–Frankfurt corridor (LD4 ↔ FR2), ~640 km including a
    Channel crossing.

    Not part of the paper's measurement (which is US-only because the
    FCC's ULS has no European counterpart with the same transparency),
    but the same tooling applies to any two-anchor corridor; this one
    exists to exercise corridor-agnosticism.
    """
    return CorridorSpec(west=LD4, east=(FR2,))


#: Equinix TY3, Tokyo (Shinagawa) — the western anchor of the long-haul
#: Asian corridor.
TY3 = DataCenterSite("TY3", GeoPoint(35.6242, 139.7410))

#: Equinix SG1, Singapore (Ayer Rajah).
SG1 = DataCenterSite("SG1", GeoPoint(1.2931, 103.7865))


def tokyo_singapore_corridor() -> CorridorSpec:
    """The Tokyo–Singapore corridor (TY3 ↔ SG1), ~5,314 km.

    An order of magnitude longer than the paper's corridor and mostly
    over water — the regime where the Fig 5 LEO-vs-microwave comparison
    flips.  Like London–Frankfurt, it exists to exercise the tooling on
    geometry far off the calibrated Chicago path.
    """
    return CorridorSpec(west=TY3, east=(SG1,))
