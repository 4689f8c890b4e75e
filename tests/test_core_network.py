"""Tests for the HftNetwork graph model."""

from __future__ import annotations

import datetime as dt

import pytest

from repro.core.corridor import DataCenterSite
from repro.core.latency import LatencyModel
from repro.core.network import (
    FiberTail,
    HftNetwork,
    MicrowaveLink,
    Tower,
)
from repro.geodesy import GeoPoint, geodesic_distance

AS_OF = dt.date(2020, 4, 1)


def _simple_network(per_tower_overhead_s: float = 0.0) -> HftNetwork:
    """CME -fiber- t1 -mw- t2 -mw- t3 -fiber- NY4, plus a bypass of t2."""
    west = DataCenterSite("CME", GeoPoint(41.70, -88.00))
    east = DataCenterSite("NY4", GeoPoint(41.70, -86.80))
    t1 = Tower("t1", GeoPoint(41.70, -87.99))
    t2 = Tower("t2", GeoPoint(41.70, -87.40))
    t3 = Tower("t3", GeoPoint(41.70, -86.81))
    bypass = Tower("b1", GeoPoint(41.74, -87.40))

    def link(a: Tower, b: Tower, freqs=(10995.0,)) -> MicrowaveLink:
        return MicrowaveLink(
            a.tower_id,
            b.tower_id,
            geodesic_distance(a.point, b.point),
            frequencies_mhz=freqs,
        )

    return HftNetwork(
        licensee="Demo",
        as_of=AS_OF,
        towers=[t1, t2, t3, bypass],
        links=[
            link(t1, t2),
            link(t2, t3),
            link(t1, bypass, freqs=(6063.8,)),
            link(bypass, t3, freqs=(6063.8,)),
        ],
        fiber_tails=[
            FiberTail("CME", "t1", geodesic_distance(west.point, t1.point)),
            FiberTail("NY4", "t3", geodesic_distance(east.point, t3.point)),
        ],
        data_centers=[west, east],
        latency_model=LatencyModel(per_tower_overhead_s=per_tower_overhead_s),
    )


class TestValidation:
    def test_link_needs_known_towers(self):
        with pytest.raises(ValueError, match="unknown tower"):
            HftNetwork(
                "X",
                AS_OF,
                towers=[Tower("t1", GeoPoint(0.0, 0.0))],
                links=[MicrowaveLink("t1", "t9", 1000.0)],
                fiber_tails=[],
                data_centers=[DataCenterSite("CME", GeoPoint(0.1, 0.1))],
            )

    def test_fiber_tail_needs_known_endpoints(self):
        with pytest.raises(ValueError, match="unknown data center"):
            HftNetwork(
                "X",
                AS_OF,
                towers=[Tower("t1", GeoPoint(0.0, 0.0))],
                links=[],
                fiber_tails=[FiberTail("NOPE", "t1", 1000.0)],
                data_centers=[DataCenterSite("CME", GeoPoint(0.1, 0.1))],
            )

    def test_tower_id_cannot_shadow_data_center(self):
        with pytest.raises(ValueError, match="collide"):
            HftNetwork(
                "X",
                AS_OF,
                towers=[Tower("CME", GeoPoint(0.0, 0.0))],
                links=[],
                fiber_tails=[],
                data_centers=[DataCenterSite("CME", GeoPoint(0.1, 0.1))],
            )

    def test_link_validation(self):
        with pytest.raises(ValueError):
            MicrowaveLink("a", "a", 1000.0)
        # NaN passes every `<= 0.0` test, so non-finite lengths need
        # their own cases.
        for length_m in (0.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                MicrowaveLink("a", "b", length_m)
        for length_m in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                FiberTail("CME", "t1", length_m)
        assert FiberTail("CME", "t1", 0.0).length_m == 0.0


class TestRouting:
    def test_route_prefers_direct_chain_over_bypass(self):
        network = _simple_network()
        route = network.lowest_latency_route("CME", "NY4")
        assert route is not None
        assert route.nodes == ("CME", "t1", "t2", "t3", "NY4")

    def test_route_accounting(self):
        network = _simple_network()
        route = network.lowest_latency_route("CME", "NY4")
        assert route.length_m == pytest.approx(
            route.microwave_length_m + route.fiber_length_m
        )
        assert route.tower_count == 3
        assert route.hop_count == 4
        # Latency decomposes into medium-specific propagation.
        model = network.latency_model
        expected = model.microwave_latency_s(
            route.microwave_length_m
        ) + model.fiber_latency_s(route.fiber_length_m)
        assert route.latency_s == pytest.approx(expected, rel=1e-12)

    def test_latency_ms_property(self):
        route = _simple_network().lowest_latency_route("CME", "NY4")
        assert route.latency_ms == pytest.approx(route.latency_s * 1e3)

    def test_no_route_returns_none(self):
        network = _simple_network()
        network.fiber_tails = [t for t in network.fiber_tails if t.data_center != "NY4"]
        network.__dict__.pop("graph", None)  # drop cached graph if built
        assert network.lowest_latency_route("CME", "NY4") is None
        assert not network.is_connected("CME", "NY4")

    def test_unknown_endpoint_is_unconnected(self):
        network = _simple_network()
        assert not network.is_connected("CME", "MARS")
        assert network.lowest_latency_route("CME", "MARS") is None

    def test_per_tower_overhead_charged_once_per_tower(self):
        base = _simple_network().lowest_latency_route("CME", "NY4")
        loaded_network = _simple_network(per_tower_overhead_s=1e-6)
        loaded = loaded_network.lowest_latency_route("CME", "NY4")
        assert loaded.latency_s - base.latency_s == pytest.approx(3e-6, rel=1e-9)

    def test_overhead_can_flip_route_choice(self):
        # The 2-tower direct chain beats the bypass normally; with a large
        # per-tower overhead the bypass (1 intermediate tower fewer on
        # this geometry: t1->b1->t3 = 2 towers + t1 = 3 vs 3) stays equal,
        # so instead verify the route latency grows monotonically.
        fast = _simple_network(per_tower_overhead_s=0.0)
        slow = _simple_network(per_tower_overhead_s=5e-6)
        assert (
            slow.lowest_latency_route("CME", "NY4").latency_s
            > fast.lowest_latency_route("CME", "NY4").latency_s
        )

    def test_route_frequencies(self):
        network = _simple_network()
        route = network.lowest_latency_route("CME", "NY4")
        freqs = network.route_frequencies_mhz(route)
        assert freqs == [(10995.0,), (10995.0,)]


class TestSummaries:
    def test_counts(self):
        network = _simple_network()
        assert network.tower_count == 4
        assert network.link_count == 4

    def test_link_lengths(self):
        lengths = _simple_network().link_lengths_m()
        assert len(lengths) == 4
        assert all(length > 0 for length in lengths)

    def test_with_latency_model_returns_equivalent_copy(self):
        network = _simple_network()
        slower = network.with_latency_model(LatencyModel(per_tower_overhead_s=1e-6))
        assert slower.licensee == network.licensee
        assert slower.lowest_latency_route("CME", "NY4").latency_s > (
            network.lowest_latency_route("CME", "NY4").latency_s
        )
