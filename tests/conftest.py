"""Shared fixtures.

The ``paper2020`` scenario build calibrates ~40 chains by bisection
(~0.5 s); the scenario registry memoises it per process, so the
session-scoped fixtures here are cheap for every test after the first.
Everything expensive downstream of
the scenario is also session-scoped and routed through the scenario's
*default* :class:`~repro.core.engine.CorridorEngine` — snapshots computed
for one test file warm the cache for every other (the CLI's commands
resolve the same memoised scenario, so even ``main(...)`` calls share it).
The §2.2 scraping funnel (~3 s: it really scrapes ~3 000 portal pages)
runs once per session via ``funnel_result``.
"""

from __future__ import annotations

import datetime as dt

import pytest

from repro.analysis.funnel import run_scraping_funnel
from repro.core.corridor import chicago_nj_corridor
from repro.core.reconstruction import NetworkReconstructor
from repro.geodesy import GeoPoint
from repro.scenarios import resolve_scenario
from repro.uls.records import License, MicrowavePath, TowerLocation


@pytest.fixture(scope="session")
def scenario():
    return resolve_scenario("paper2020")


@pytest.fixture(scope="session")
def corridor():
    return chicago_nj_corridor()


@pytest.fixture(scope="session")
def reconstructor(corridor):
    return NetworkReconstructor(corridor)


@pytest.fixture(scope="session")
def snapshot_date(scenario):
    return scenario.snapshot_date


@pytest.fixture(scope="session")
def engine(scenario):
    """The scenario's shared default engine (snapshot/route caches)."""
    return scenario.engine()


@pytest.fixture(scope="session")
def funnel_result(scenario, engine):
    """One §2.2 funnel replay at the snapshot date, shared session-wide."""
    return run_scraping_funnel(
        scenario.database,
        scenario.corridor,
        scenario.snapshot_date,
        engine=engine,
    )


@pytest.fixture(scope="session")
def nln_network(engine, snapshot_date):
    return engine.snapshot("New Line Networks", snapshot_date)


@pytest.fixture(scope="session")
def wh_network(engine, snapshot_date):
    return engine.snapshot("Webline Holdings", snapshot_date)


@pytest.fixture(scope="session")
def serve_service(scenario, engine):
    """One warm query service over the session's shared engine."""
    from repro.serve import CorridorQueryService

    return CorridorQueryService(scenario=scenario, engine=engine)


@pytest.fixture(scope="session")
def serve_server(serve_service):
    """A live threaded HTTP server on an ephemeral localhost port."""
    from repro.serve import CorridorServer

    with CorridorServer(serve_service) as server:
        yield server


def make_license(
    license_id: str = "L0001",
    licensee: str = "Test Networks LLC",
    points: tuple[tuple[float, float], ...] = ((41.75, -88.18), (41.60, -87.80)),
    grant: dt.date = dt.date(2015, 3, 1),
    cancellation: dt.date | None = None,
    termination: dt.date | None = None,
    frequencies: tuple[float, ...] = (11225.0,),
    radio_service: str = "MG",
    station_class: str = "FXO",
) -> License:
    """A small single-path (chain) license for unit tests.

    ``points`` lists tower coordinates; consecutive points become paths
    from a single transmitter chain (location i -> i+1).
    """
    locations = {
        index + 1: TowerLocation(
            location_number=index + 1,
            point=GeoPoint(lat, lon),
            ground_elevation_m=200.0,
            structure_height_m=90.0,
        )
        for index, (lat, lon) in enumerate(points)
    }
    paths = [
        MicrowavePath(
            path_number=index + 1,
            tx_location_number=index + 1,
            rx_location_number=index + 2,
            frequencies_mhz=frequencies,
        )
        for index in range(len(points) - 1)
    ]
    return License(
        license_id=license_id,
        callsign=f"WQ{license_id}",
        licensee_name=licensee,
        radio_service_code=radio_service,
        station_class=station_class,
        grant_date=grant,
        expiration_date=grant + dt.timedelta(days=3650) if grant else None,
        cancellation_date=cancellation,
        termination_date=termination,
        locations=locations,
        paths=paths,
    )
