"""The query service's payloads, validation and structured fault paths.

Transport-free: these tests drive :class:`CorridorQueryService` directly
(`handle_url`), so they pin the service contract — payload shapes,
defaults, error codes — without a socket in the loop.  The HTTP layer's
behaviour is pinned in ``tests/test_serve_http.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.metrics.rankings import rank_connected_networks
from repro.serve.payloads import (
    DATE_MAX,
    DATE_MIN,
    render_payload,
    timeline_dates,
)
from repro.serve.service import (
    CorridorQueryService,
    Endpoint,
    ServiceError,
    parse_request,
)


class TestParseRequest:
    def test_splits_path_and_params(self):
        path, params = parse_request("/rankings?date=2019-01-01&source=CME")
        assert path == "/rankings"
        assert params == {"date": "2019-01-01", "source": "CME"}

    def test_no_query(self):
        assert parse_request("/apa") == ("/apa", {})

    def test_percent_decoding(self):
        _, params = parse_request("/timeline?licensee=New%20Line%20Networks")
        assert params == {"licensee": "New Line Networks"}

    def test_duplicate_param_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_request("/rankings?date=2019-01-01&date=2020-01-01")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "duplicate-param"


class TestEndpointPayloads:
    def test_healthz(self, serve_service):
        status, payload = serve_service.handle_url("/healthz")
        assert (status, payload) == (200, {"status": "ok"})

    def test_rankings_matches_metrics_layer(self, serve_service, scenario, engine):
        status, payload = serve_service.handle_url("/rankings")
        assert status == 200
        expected = rank_connected_networks(
            scenario.database,
            scenario.corridor,
            scenario.snapshot_date,
            engine=engine,
        )
        assert payload["date"] == scenario.snapshot_date.isoformat()
        assert [r["licensee"] for r in payload["rankings"]] == [
            r.licensee for r in expected
        ]
        assert [r["latency_ms"] for r in payload["rankings"]] == [
            r.latency_ms for r in expected
        ]

    def test_rankings_respects_date_param(self, serve_service):
        _, at_2016 = serve_service.handle_url("/rankings?date=2016-06-01")
        _, at_default = serve_service.handle_url("/rankings")
        assert at_2016["date"] == "2016-06-01"
        assert at_2016["rankings"] != at_default["rankings"]

    def test_timeline_covers_featured_networks(self, serve_service, scenario):
        status, payload = serve_service.handle_url("/timeline")
        assert status == 200
        assert [s["licensee"] for s in payload["series"]] == list(
            scenario.featured_names
        )
        dates = timeline_dates("paper")
        assert payload["dates"] == [d.isoformat() for d in dates]
        for series in payload["series"]:
            assert len(series["latency_ms"]) == len(dates)
            assert len(series["active_licenses"]) == len(dates)

    def test_timeline_single_licensee(self, serve_service, engine, scenario):
        status, payload = serve_service.handle_url(
            "/timeline?licensee=New%20Line%20Networks"
        )
        assert status == 200
        (series,) = payload["series"]
        points = engine.timeline(
            "New Line Networks", timeline_dates("paper"), "CME", "NY4"
        )
        assert series["latency_ms"] == [p.latency_ms for p in points]

    def test_apa_defaults_to_paper_pair(self, serve_service, scenario):
        status, payload = serve_service.handle_url("/apa")
        assert status == 200
        assert payload["licensees"] == ["New Line Networks", "Webline Holdings"]
        assert len(payload["paths"]) == len(tuple(scenario.corridor.paths))
        for row in payload["paths"]:
            for value in row["apa_percent"].values():
                assert 0 <= value <= 100

    def test_search_defaults_to_cme(self, serve_service, scenario):
        status, payload = serve_service.handle_url("/search")
        assert status == 200
        cme = scenario.corridor.site("CME").point
        assert payload["center"] == {
            "latitude": cme.latitude,
            "longitude": cme.longitude,
        }
        assert payload["results"]

    def test_search_active_on_filters(self, serve_service):
        _, everything = serve_service.handle_url("/search")
        _, early = serve_service.handle_url("/search?active_on=2013-06-01")
        assert len(early["results"]) < len(everything["results"])

    def test_map_is_geojson(self, serve_service):
        status, payload = serve_service.handle_url("/map")
        assert status == 200
        assert payload["type"] == "FeatureCollection"
        assert payload["properties"]["licensee"] == "New Line Networks"
        kinds = {f["properties"]["kind"] for f in payload["features"]}
        assert "datacenter" in kinds

    def test_stats_counts_requests(self, scenario):
        from repro.core.engine import CorridorEngine

        fresh = CorridorEngine(scenario.database, scenario.corridor)
        service = CorridorQueryService(scenario=scenario, engine=fresh)
        service.handle_url("/healthz")
        service.handle_url("/rankings?bogus=1")
        _, stats = service.handle_url("/stats")
        assert stats["facade"]["requests"] == 3  # /stats counts itself
        assert stats["facade"]["errors"] == 1
        assert stats["facade"]["in_flight"] == 1  # the /stats call itself
        # Neither /healthz nor a validation failure touches the engine.
        assert stats["engine"]["snapshot_hits"] == 0
        assert stats["engine"]["snapshot_misses"] == 0


class TestFaultPaths:
    @pytest.mark.parametrize(
        "url, status, code",
        [
            ("/nope", 404, "unknown-endpoint"),
            ("/rankings?date=not-a-date", 400, "bad-date"),
            ("/rankings?date=2020-13-45", 400, "bad-date"),
            ("/rankings?bogus=1", 400, "unknown-param"),
            ("/rankings?source=LHR", 400, "unknown-site"),
            (f"/rankings?date={(DATE_MIN.replace(year=DATE_MIN.year - 1))}", 400, "date-out-of-range"),
            (f"/apa?date={(DATE_MAX.replace(year=DATE_MAX.year + 1))}", 400, "date-out-of-range"),
            ("/apa?licensee=Nobody%20Networks", 404, "unknown-licensee"),
            ("/timeline?licensee=Nobody", 404, "unknown-licensee"),
            ("/timeline?step=hourly", 400, "bad-step"),
            ("/map?licensee=Nobody", 404, "unknown-licensee"),
            ("/search?lat=ninety", 400, "bad-number"),
            ("/search?lat=91", 400, "bad-number"),
            ("/search?lon=-181", 400, "bad-number"),
            ("/search?radius_m=-5", 400, "bad-number"),
            ("/search?radius_m=inf", 400, "bad-number"),
            ("/search?active_on=yesterday", 400, "bad-date"),
            ("/healthz?x=1", 400, "unknown-param"),
        ],
    )
    def test_structured_4xx(self, serve_service, url, status, code):
        got_status, payload = serve_service.handle_url(url)
        assert got_status == status
        assert payload["error"]["code"] == code
        assert "Traceback" not in payload["error"]["message"]

    def test_handler_crash_becomes_structured_500(self, scenario, engine):
        service = CorridorQueryService(scenario=scenario, engine=engine)
        service.endpoints["/boom"] = Endpoint(
            lambda scenario, params: (None, (), ()), lambda *_: 1 / 0
        )
        status, payload = service.handle_url("/boom")
        assert status == 500
        assert payload["error"]["code"] == "internal"
        assert "ZeroDivisionError" in payload["error"]["message"]
        # The service survives: the next request is served normally.
        status, payload = service.handle_url("/healthz")
        assert status == 200

    def test_service_error_payload_roundtrips_json(self):
        error = ServiceError(400, "bad-date", "nope")
        assert json.loads(render_payload(error.payload())) == {
            "error": {"code": "bad-date", "message": "nope"}
        }


class TestOnePass:
    @pytest.mark.parametrize(
        "url, status, hit",
        [
            ("/rankings?date=2016-06-01", 200, False),
            # The primed date's active sets: a body-cache hit.
            ("/rankings?date=2018-02-11", 200, True),
            ("/rankings?date=zzz", 400, False),
        ],
    )
    def test_each_request_parses_and_validates_once(
        self, scenario, engine, monkeypatch, url, status, hit
    ):
        from repro.serve import service as service_module

        service = CorridorQueryService(scenario=scenario, engine=engine)
        assert service.handle_http("/rankings?date=2018-02-06")[0] == 200
        calls = {"parse": 0, "validate": 0}
        parse = service_module.parse_request
        endpoint = service.endpoints["/rankings"]

        def counting_parse(target):
            calls["parse"] += 1
            return parse(target)

        def counting_validate(*args):
            calls["validate"] += 1
            return endpoint.validate(*args)

        monkeypatch.setattr(service_module, "parse_request", counting_parse)
        service.endpoints["/rankings"] = endpoint._replace(
            validate=counting_validate
        )
        hits = service.bodies.hits
        assert service.handle_http(url)[0] == status
        assert calls == {"parse": 1, "validate": 1}
        assert service.bodies.hits == hits + hit
        assert service.facade.describe()["facade"]["requests"] == 2


class TestRenderPayload:
    def test_canonical_encoding(self):
        assert render_payload({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_byte_equality_is_payload_equality(self, serve_service):
        _, first = serve_service.handle_url("/rankings")
        _, second = serve_service.handle_url("/rankings")
        assert render_payload(first) == render_payload(second)
