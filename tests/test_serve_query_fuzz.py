"""Fuzzing the served query string.

A request target is outside text.  Whatever the path and query string,
:func:`parse_request` either splits it or raises :class:`ServiceError`,
and :meth:`CorridorQueryService.handle_url` answers 200 or a 4xx whose
body is ``{"error": {"code": ..., "message": ...}}`` — never a 500.

Draws mix each endpoint's own parameter names with junk names, so they
reach the validators instead of failing at the unknown-param check.
``scenario`` values stay ``paper2020`` or unparseable junk, so no draw
builds a scenario (``tests/test_scenario_ref_fuzz.py`` covers refs).
"""

from __future__ import annotations

from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import CorridorEngine
from repro.serve.service import CorridorQueryService, ServiceError, parse_request

#: Each served path and the query parameters its handler reads.
_ENDPOINTS = {
    "/rankings": ("date", "source", "target", "scenario"),
    "/timeline": ("step", "licensee", "scenario"),
    "/apa": ("date", "licensee", "scenario"),
    "/search": ("lat", "lon", "radius_m", "active_on", "scenario"),
    "/map": ("licensee", "date", "scenario"),
    "/healthz": (),
    "/stats": (),
    "/scenarios": (),
}

#: Served paths (weighted up), junk paths, and ``None`` for free text.
_PATHS = st.sampled_from(
    sorted(_ENDPOINTS) * 4
    + ["", "/", "/nope", "//rankings", "/rankings/", "/RANKINGS",
       "/rankings%00", "/map/..", "rankings", "/%ZZ", "/?", None]
).flatmap(lambda path: st.text(max_size=12) if path is None else st.just(path))

_JUNK_NAMES = st.one_of(
    st.sampled_from(["", "x", "Date", "scenario ", "lat[]", "%", "a=b"]),
    st.text(max_size=5),
)

#: Values that reach past the first check of some validator: in-range
#: and out-of-range dates, known and unknown sites, licensees and steps,
#: and numbers that ``float`` accepts but the service must bound.
_NEAR_VALID = st.sampled_from(
    ["2019-01-01", "2013-06-30", "20190101", "2019-W01-1", "0001-01-01",
     "9999-12-31", "2019-02-30", "paper", "monthly", "Paper",
     "New Line Networks", "Webline Holdings", "CME", "NY4", "NYSE",
     "NASDAQ", "41.8", "-87.6", "90", "-180", "5000", "0", "-0", "nan",
     "inf", "-inf", "1e309", "1e-320", "1_000", "0x10", "١٢"]
)

#: Raw fragments inserted without quoting: broken and valid escapes,
#: separators, NUL and invalid UTF-8.
_RAW_FRAGMENTS = st.sampled_from(
    ["%", "%2", "%ZZ", "%00", "%C3%28", "%FF", "%E2%82", "+", "&", "=",
     "==", "&&", "#", ";", "%26", "%3D", "%20", "?"]
)

_SCENARIOS = st.sampled_from(
    ["paper2020", "", ":", "::", "nope", "paper2020:seed=1",
     "synthetic:seed=", "synthetic:seed=x", "synthetic:bogus=1", "=",
     "%ZZ", " paper2020"]
)


@st.composite
def _query_pairs(draw, path: str) -> list[str]:
    own = _ENDPOINTS.get(path) or ("x",)
    names = draw(st.lists(st.sampled_from(own), max_size=4, unique=True))
    if draw(st.integers(0, 3)) == 0:
        names.append(draw(_JUNK_NAMES))
    pairs = []
    for name in names:
        if name == "scenario":
            value = quote(draw(_SCENARIOS), safe="")
        else:
            value = draw(
                st.one_of(
                    st.just(""),
                    _NEAR_VALID.map(lambda text: quote(text, safe="")),
                    st.text(max_size=8).map(lambda text: quote(text, safe="")),
                    _RAW_FRAGMENTS,
                    st.text(max_size=4),
                )
            )
        separator = draw(st.sampled_from(["=", "=", "", "=="]))
        pairs.append(quote(name, safe="") + separator + value)
    if pairs and draw(st.integers(0, 4)) == 0:
        # Repeat a key the request already carries.
        pairs.append(quote(draw(st.sampled_from(names)), safe="") + "=")
    return pairs


@st.composite
def _request_targets(draw) -> str:
    path = draw(_PATHS)
    pairs = draw(_query_pairs(path))
    joiner = draw(st.sampled_from(["&", "&", "&&", ";"]))
    query = joiner.join(pairs)
    return path + ("?" + query if query or draw(st.booleans()) else "")


@pytest.fixture(scope="module")
def service(scenario):
    # Its own engine and facade, so the draws leave the session's shared
    # engine and service counters as other tests expect them.
    return CorridorQueryService(
        scenario=scenario,
        engine=CorridorEngine(scenario.database, scenario.corridor),
    )


@settings(max_examples=300, deadline=None)
@given(_request_targets())
def test_any_query_string_is_answered_or_rejected_structurally(service, url):
    try:
        parse_request(url)
    except ServiceError as error:
        assert 400 <= error.status < 500, (url, error.status)
    status, payload = service.handle_url(url)
    assert status == 200 or 400 <= status < 500, (url, status, payload)
    if status != 200:
        assert set(payload) == {"error"}, (url, payload)
        assert set(payload["error"]) == {"code", "message"}, (url, payload)
        assert all(isinstance(v, str) for v in payload["error"].values())
