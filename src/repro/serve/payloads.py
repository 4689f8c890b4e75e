"""JSON payload builders shared by the server and the CLI.

Every served endpoint and its ``hftnetview <cmd> --format json`` twin
call the *same* builder here and the *same* renderer
(:func:`render_payload`), so the golden parity tests in
``tests/test_serve_parity.py`` hold by construction: the bytes on the
HTTP socket equal the bytes on the CLI's stdout.

Builders are pure functions of ``(scenario, engine, validated params)``
— no facade, no locking, no HTTP.  The service layer owns validation
and concurrency; the CLI calls builders directly on the shared
scenario engine.
"""

from __future__ import annotations

import datetime as dt
import json

from repro.constants import CME_SEARCH_RADIUS_M
from repro.core.apa import whole_percent
from repro.core.engine import CorridorEngine
from repro.core.timeline import (
    dense_date_grid,
    license_count_timeline,
    yearly_snapshot_dates,
)
from repro.metrics.rankings import rank_connected_networks
from repro.synth.scenario import Scenario
from repro.uls.search import UlsSearchService
from repro.viz.geojson import network_to_geojson

#: Query dates the service accepts: the study window plus slack on both
#: sides.  Anything outside is a structured 400 — the synthetic corridor
#: has no filings out there, and unbounded dates make cache keys and
#: coalescing windows unbounded too.
DATE_MIN = dt.date(2012, 1, 1)
DATE_MAX = dt.date(2021, 12, 31)

def render_payload(payload: dict) -> str:
    """The one JSON encoding both the server and the CLI emit.

    Sorted keys and tight separators make the encoding canonical, so
    equality of payloads is equality of bytes.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def timeline_dates(step: str) -> list[dt.date]:
    """The date grid a timeline ``step`` resolves to (CLI and server)."""
    if step == "paper":
        return yearly_snapshot_dates()
    return dense_date_grid(step)


def rankings_payload(
    scenario: Scenario,
    engine: CorridorEngine,
    on_date: dt.date,
    source: str | None = None,
    target: str | None = None,
) -> dict:
    """Table 1 as JSON: connected networks by increasing latency."""
    source, target = scenario.corridor.resolve_path(source, target)
    rankings = rank_connected_networks(
        scenario.database,
        scenario.corridor,
        on_date,
        source=source,
        target=target,
        engine=engine,
    )
    return {
        "endpoint": "rankings",
        "date": on_date.isoformat(),
        "source": source,
        "target": target,
        "rankings": [
            {
                "licensee": r.licensee,
                "latency_ms": r.latency_ms,
                "apa_percent": r.apa_percent,
                "tower_count": r.tower_count,
            }
            for r in rankings
        ],
    }


def timeline_payload(
    scenario: Scenario,
    engine: CorridorEngine,
    step: str = "paper",
    licensees: tuple[str, ...] | None = None,
    source: str | None = None,
    target: str | None = None,
) -> dict:
    """Figs 1 + 2 as JSON: latency and license-count series per network."""
    source, target = scenario.corridor.resolve_path(source, target)
    names = licensees if licensees else scenario.featured_names
    dates = timeline_dates(step)
    series = []
    for name in names:
        points = engine.timeline(name, dates, source, target)
        counts = license_count_timeline(scenario.database, name, dates)
        series.append(
            {
                "licensee": name,
                "latency_ms": [p.latency_ms for p in points],
                "tower_count": [p.tower_count for p in points],
                "active_licenses": list(counts.counts),
            }
        )
    return {
        "endpoint": "timeline",
        "step": step,
        "source": source,
        "target": target,
        "dates": [d.isoformat() for d in dates],
        "series": series,
    }


def apa_payload(
    scenario: Scenario,
    engine: CorridorEngine,
    on_date: dt.date,
    licensees: tuple[str, ...] | None = None,
) -> dict:
    """Table 3 as JSON: per-corridor-path APA for the chosen networks
    (defaults to the scenario's spotlight pair)."""
    if licensees is None:
        licensees = scenario.spotlight_names
    paths = tuple(scenario.corridor.paths)
    return {
        "endpoint": "apa",
        "date": on_date.isoformat(),
        "licensees": list(licensees),
        "paths": [
            {
                "source": path[0],
                "target": path[1],
                "apa_percent": {
                    name: whole_percent(
                        engine.apa(name, on_date, path[0], path[1])
                    )
                    for name in licensees
                },
            }
            for path in paths
        ],
    }


def search_payload(
    scenario: Scenario,
    latitude: float | None = None,
    longitude: float | None = None,
    radius_m: float | None = None,
    active_on: dt.date | None = None,
) -> dict:
    """Geographic license search as JSON (defaults: around the western
    anchor)."""
    cme = scenario.corridor.west.point
    center = cme
    if latitude is not None or longitude is not None:
        center = type(cme)(
            latitude if latitude is not None else cme.latitude,
            longitude if longitude is not None else cme.longitude,
        )
    radius = radius_m if radius_m is not None else CME_SEARCH_RADIUS_M
    service = UlsSearchService(scenario.database)
    rows = service.geographic_search(center, radius, active_on=active_on)
    return {
        "endpoint": "search",
        "center": {"latitude": center.latitude, "longitude": center.longitude},
        "radius_m": radius,
        "active_on": active_on.isoformat() if active_on else None,
        "results": [
            {
                "license_id": r.license_id,
                "callsign": r.callsign,
                "licensee": r.licensee_name,
                "radio_service": r.radio_service_code,
                "station_class": r.station_class,
            }
            for r in rows
        ],
    }


def map_payload(
    scenario: Scenario,
    engine: CorridorEngine,
    licensee: str | None = None,
    on_date: dt.date | None = None,
) -> dict:
    """One network snapshot as a GeoJSON FeatureCollection (defaults to
    the scenario's first spotlight network)."""
    if licensee is None:
        licensee = scenario.spotlight_names[0]
    date = on_date or scenario.snapshot_date
    network = engine.snapshot(licensee, date)
    geojson = network_to_geojson(network)
    geojson["properties"] = {"licensee": licensee, "date": date.isoformat()}
    return geojson
