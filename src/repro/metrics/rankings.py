"""Per-path network rankings (Tables 1 and 2).

Table 1 lists every network with end-to-end CME–NY4 connectivity, ordered
by estimated one-way latency, with APA and the tower count of the lowest-
latency route.  Table 2 extracts the top-3 per corridor path.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

from repro.constants import APA_SLACK_FACTOR
from repro.core.apa import whole_percent
from repro.core.corridor import CorridorSpec
from repro.core.engine import CorridorEngine
from repro.core.network import Route
from repro.uls.database import UlsDatabase


@dataclass(frozen=True)
class NetworkRanking:
    """One row of Table 1: a connected network's headline numbers."""

    licensee: str
    latency_ms: float
    apa_percent: int
    tower_count: int
    route: Route

    def as_row(self) -> tuple[str, float, int, int]:
        return (self.licensee, self.latency_ms, self.apa_percent, self.tower_count)


def rank_connected_networks(
    database: UlsDatabase,
    corridor: CorridorSpec,
    on_date: dt.date,
    source: str | None = None,
    target: str | None = None,
    licensees: list[str] | None = None,
    slack: float = APA_SLACK_FACTOR,
    engine: CorridorEngine | None = None,
) -> list[NetworkRanking]:
    """All networks connected source↔target, by increasing latency.

    ``licensees`` restricts the candidate set (the paper applies this to
    its 29 shortlisted licensees); by default every licensee in the
    database is considered.  Pass ``engine`` to share snapshot/route/APA
    caches across rankings (e.g. over a date grid); without one the
    ranking runs on a private default-parameter engine.  Disconnected
    licensees drop out before the latency sort.
    ``source`` / ``target`` default to the corridor's primary path.
    """
    source, target = corridor.resolve_path(source, target)
    if engine is None:
        engine = CorridorEngine(database, corridor)
    names = licensees if licensees is not None else database.licensee_names()
    rankings = []
    for name in names:
        route = engine.route(name, on_date, source, target)
        if route is None:
            continue
        rankings.append(
            NetworkRanking(
                licensee=name,
                latency_ms=route.latency_ms,
                apa_percent=whole_percent(
                    engine.apa(name, on_date, source, target, slack)
                ),
                tower_count=route.tower_count,
                route=route,
            )
        )
    rankings.sort(key=lambda ranking: ranking.latency_ms)
    return rankings


@dataclass(frozen=True)
class PathTopRanking:
    """One row of Table 2: the fastest networks on one corridor path."""

    source: str
    target: str
    geodesic_km: float
    top: tuple[NetworkRanking, ...]


def top_networks_per_path(
    database: UlsDatabase,
    corridor: CorridorSpec,
    on_date: dt.date,
    top_n: int = 3,
    licensees: list[str] | None = None,
    engine: CorridorEngine | None = None,
) -> list[PathTopRanking]:
    """Table 2: the ``top_n`` fastest networks for every corridor path.

    One engine serves all paths, so each licensee's network is stitched
    once and only re-routed per (source, target) pair.
    """
    if engine is None:
        engine = CorridorEngine(database, corridor)
    results = []
    for source, target in corridor.paths:
        rankings = rank_connected_networks(
            database,
            corridor,
            on_date,
            source=source,
            target=target,
            licensees=licensees,
            engine=engine,
        )
        results.append(
            PathTopRanking(
                source=source,
                target=target,
                geodesic_km=corridor.geodesic_m(source, target) / 1000.0,
                top=tuple(rankings[:top_n]),
            )
        )
    return results


def latency_gap_us(first: NetworkRanking, second: NetworkRanking) -> float:
    """Latency gap between two ranked networks, microseconds.

    The paper quotes these gaps (e.g. NLN leads PB by ~0.4 µs on CME–NY4).
    """
    return (second.latency_ms - first.latency_ms) * 1000.0
