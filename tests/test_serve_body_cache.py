"""The served body cache is exact: a body depends on its date only
through the licensees' active sets, and the date it echoes.

`/rankings`, `/apa` and `/map` bodies are cached by fingerprints (the
active license sets of the licensees the payload reads), not by date,
and a hit splices the requested date into the cached body.  These
properties hold every served body, hit or miss, to a fresh render on an
engine with cold caches, in each registered concrete corridor.
"""

from __future__ import annotations

import datetime as dt
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import CorridorEngine
from repro.scenarios import resolve_scenario
from repro.serve import CorridorQueryService
from repro.serve.payloads import DATE_MAX, DATE_MIN, render_payload

SCENARIOS = ("paper2020", "europe2020", "tokyo-singapore")
ENDPOINTS = ("/rankings", "/apa", "/map")

#: One warm service per scenario, shared by every example, so later
#: examples meet a body cache earlier ones filled.
_SERVICES: dict[str, CorridorQueryService] = {}


def warm_service(name: str) -> CorridorQueryService:
    if name not in _SERVICES:
        scenario = resolve_scenario(name)
        engine = CorridorEngine(scenario.database, scenario.corridor)
        _SERVICES[name] = CorridorQueryService(scenario=scenario, engine=engine)
    return _SERVICES[name]


def cold_body(name: str, url: str) -> bytes:
    scenario = resolve_scenario(name)
    engine = CorridorEngine(scenario.database, scenario.corridor)
    status, payload = CorridorQueryService(
        scenario=scenario, engine=engine
    ).handle_url(url)
    assert status == 200, payload
    return (render_payload(payload) + "\n").encode("utf-8")


def fingerprints(name: str, endpoint: str, date: dt.date) -> tuple:
    """The active sets the endpoint's default payload reads on ``date``."""
    scenario = resolve_scenario(name)
    database = scenario.database
    if endpoint == "/rankings":
        names = database.licensee_names()
    elif endpoint == "/apa":
        names = scenario.spotlight_names
    else:
        names = scenario.spotlight_names[:1]
    return tuple(
        database.temporal_index(licensee).active_ids_at(date) for licensee in names
    )


def split_date(body: bytes, endpoint: str) -> tuple[str, dict]:
    """The date a body echoes, and the rest of its payload."""
    payload = json.loads(body)
    holder = payload["properties"] if endpoint == "/map" else payload
    return holder.pop("date"), payload


dates = st.dates(min_value=DATE_MIN, max_value=DATE_MAX)


@st.composite
def date_pairs(draw) -> tuple[dt.date, dt.date]:
    """Two dates, often a few days apart (so often one active set)."""
    first = draw(dates)
    if draw(st.booleans()):
        return first, draw(dates)
    offset = dt.timedelta(days=draw(st.integers(min_value=-20, max_value=20)))
    return first, min(DATE_MAX, max(DATE_MIN, first + offset))


class TestBodiesDependOnFingerprints:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=st.sampled_from(SCENARIOS),
        endpoint=st.sampled_from(ENDPOINTS),
        pair=date_pairs(),
    )
    def test_equal_fingerprints_differ_only_in_date(self, name, endpoint, pair):
        service = warm_service(name)
        rests = []
        for date in pair:
            url = f"{endpoint}?date={date.isoformat()}"
            status, body = service.handle_http(url)
            assert status == 200
            assert body == cold_body(name, url)
            echoed, rest = split_date(body, endpoint)
            assert echoed == date.isoformat()
            rests.append(rest)
        first, second = pair
        if fingerprints(name, endpoint, first) == fingerprints(
            name, endpoint, second
        ):
            assert rests[0] == rests[1]
