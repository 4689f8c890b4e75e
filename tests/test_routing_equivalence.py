"""The stdlib Dijkstra routes and scores APA exactly as networkx did.

Lowest-latency routes, connectivity and alternate path availability run
:func:`repro.core.network.dijkstra` over the network's cached adjacency.
Each is held to the networkx implementation kept in ``tests/nx_oracle.py``:
route nodes (tie-breaks included), every float of the route to the bit
(compared through ``repr``), ``is_connected`` against ``nx.has_path`` and
APA in both scopes.  The comparison covers every licensee × yearly date of
the registered scenarios under the per-tower overheads the ``stability``
sweep uses, hand-built tie graphs and random graphs.
"""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import APA_SLACK_FACTOR
from repro.core.corridor import DataCenterSite
from repro.core.latency import LatencyModel
from repro.core.network import FiberTail, HftNetwork, MicrowaveLink, Tower
from repro.core.timeline import yearly_snapshot_dates
from repro.geodesy import GeoPoint
from repro.core.apa import alternate_path_availability
from repro.scenarios.registry import resolve_scenario

from tests import nx_oracle

SCENARIOS = (
    "paper2020",
    "europe2020",
    "tokyo-singapore",
    "synthetic:seed=1,networks=12",
)

#: Per-tower overheads (µs): none, and points of ``stability``'s default
#: 0–3 µs sweep.
OVERHEADS_US = (0.0, 1.0, 3.0)

#: APA slacks per scenario: ``apa_slack_sweep``'s for ``paper2020``, the
#: default elsewhere.
SLACKS = {"paper2020": (1.01, 1.02, 1.05, 1.10, 1.20)}

WEST = DataCenterSite("CME", GeoPoint(41.7580, -88.1801))
EAST = DataCenterSite("NY4", GeoPoint(41.7580, -88.0601))


def _assert_matches_oracle(
    network: HftNetwork, source: str, target: str, slacks=(APA_SLACK_FACTOR,)
) -> None:
    route = network.lowest_latency_route(source, target)
    expected = nx_oracle.lowest_latency_route(network, source, target)
    # repr prints every float round-trip exactly: equal reprs, equal bits.
    assert repr(route) == repr(expected)
    assert network.is_connected(source, target) == nx_oracle.is_connected(
        network, source, target
    )
    for slack in slacks:
        for scope in ("route", "network"):
            assert alternate_path_availability(
                network, network.lowest_latency_route(source, target), slack, scope
            ) == nx_oracle.alternate_path_availability(
                network, source, target, slack, scope
            )


@pytest.mark.parametrize("ref", SCENARIOS)
def test_scenario_routes_and_apa_match_oracle(ref):
    scenario = resolve_scenario(ref)
    engine = scenario.engine()
    routed = 0
    for name in scenario.database.licensee_names():
        for on_date in yearly_snapshot_dates():
            network = engine.snapshot(name, on_date)
            for overhead_us in OVERHEADS_US:
                loaded = network.with_latency_model(
                    LatencyModel(per_tower_overhead_s=overhead_us * 1e-6)
                )
                for source, target in scenario.corridor.paths:
                    _assert_matches_oracle(
                        loaded, source, target, SLACKS.get(ref, (APA_SLACK_FACTOR,))
                    )
                    routed += loaded.lowest_latency_route(source, target) is not None
    assert routed > 0


def _tower(tower_id: str) -> Tower:
    return Tower(tower_id, GeoPoint(41.7580, -88.12))


def _network(links, tails, overhead_s: float = 0.0) -> HftNetwork:
    tower_ids = sorted(
        {t for link in links for t in (link.tower_a, link.tower_b)}
        | {tail.tower_id for tail in tails}
    )
    return HftNetwork(
        "Demo",
        dt.date(2020, 4, 1),
        [_tower(t) for t in tower_ids],
        links,
        tails,
        [WEST, EAST],
        LatencyModel(per_tower_overhead_s=overhead_s),
    )


def _chains(first: str, second: str) -> HftNetwork:
    """Two equal-latency parallel chains CME–x0–x1–NY4, ``first`` filed
    first."""
    links, tails = [], []
    for prefix in (first, second):
        links.append(MicrowaveLink(f"{prefix}0", f"{prefix}1", 3_000.0))
        tails.append(FiberTail("CME", f"{prefix}0", 100.0))
        tails.append(FiberTail("NY4", f"{prefix}1", 100.0))
    return _network(links, tails)


@pytest.mark.parametrize("first, second", [("a", "b"), ("b", "a")])
def test_equal_parallel_chains_tie_break_on_filing_order(first, second):
    network = _chains(first, second)
    _assert_matches_oracle(network, "CME", "NY4")
    route = network.lowest_latency_route("CME", "NY4")
    assert route.nodes == ("CME", f"{first}0", f"{first}1", "NY4")


@pytest.mark.parametrize("overhead_s", [0.0, 1e-6])
@pytest.mark.parametrize("refiled", [False, True])
def test_diamond_tie_matches_oracle(overhead_s, refiled):
    """t0 → t2 → t3 and t0 → t1 → t3 tie; t0–t2 was filed first, so t2 is
    t0's first neighbour and wins — even after a later refiling of t0–t2,
    which keeps the pair's first position."""
    links = [
        MicrowaveLink("t0", "t2", 2_000.0),
        MicrowaveLink("t0", "t1", 2_000.0),
        MicrowaveLink("t1", "t3", 2_000.0),
        MicrowaveLink("t2", "t3", 2_000.0),
    ]
    if refiled:
        links.append(MicrowaveLink("t2", "t0", 2_000.0))
    tails = [FiberTail("CME", "t0", 50.0), FiberTail("NY4", "t3", 50.0)]
    network = _network(links, tails, overhead_s)
    _assert_matches_oracle(network, "CME", "NY4")
    assert network.lowest_latency_route("CME", "NY4").nodes[2] == "t2"


def test_repeated_pair_keeps_first_position_and_last_entry():
    links = [
        MicrowaveLink("t0", "t1", 9_000.0),
        MicrowaveLink("t0", "t2", 4_000.0),
        MicrowaveLink("t2", "t1", 4_000.0),
        MicrowaveLink("t1", "t0", 1_000.0),
    ]
    tails = [FiberTail("CME", "t0", 50.0), FiberTail("NY4", "t1", 50.0)]
    network = _network(links, tails)
    _assert_matches_oracle(network, "CME", "NY4")
    assert network.lowest_latency_route("CME", "NY4").microwave_length_m == 1_000.0


def test_network_scope_counts_a_refiled_pair_once():
    """The trunk link t0–t1 (filed twice) is not removable, the spur t1–t2
    is: one of two links."""
    links = [
        MicrowaveLink("t0", "t1", 3_000.0),
        MicrowaveLink("t1", "t2", 1_000.0),
        MicrowaveLink("t1", "t0", 3_000.0),
    ]
    tails = [FiberTail("CME", "t0", 50.0), FiberTail("NY4", "t1", 50.0)]
    network = _network(links, tails)
    _assert_matches_oracle(network, "CME", "NY4")
    assert alternate_path_availability(
        network, network.lowest_latency_route("CME", "NY4"), scope="network"
    ) == 0.5


def test_source_equals_target_matches_oracle():
    network = _chains("a", "b")
    _assert_matches_oracle(network, "CME", "CME")


@st.composite
def _random_networks(draw):
    """Small networks on towers t0..t(n-1) with lengths from a few values
    (so equal-latency paths are common), repeated pairs included."""
    n = draw(st.integers(2, 8))
    tower = st.integers(0, n - 1).map(lambda i: f"t{i}")
    pairs = draw(
        st.lists(st.tuples(tower, tower).filter(lambda p: p[0] != p[1]), max_size=16)
    )
    lengths = st.sampled_from((1_000.0, 2_000.0, 3_000.0, 2_500.5))
    links = [MicrowaveLink(a, b, draw(lengths)) for a, b in pairs]
    tails = [
        FiberTail(dc, draw(tower), draw(st.sampled_from((0.0, 100.0, 750.0))))
        for dc in draw(st.lists(st.sampled_from(("CME", "NY4")), max_size=4))
    ]
    overhead_s = draw(st.sampled_from((0.0, 1e-6, 3e-6)))
    return _network(links, tails, overhead_s), draw(st.floats(0.5, 6.0))


@settings(max_examples=150, deadline=None)
@given(_random_networks())
def test_random_networks_match_oracle(drawn):
    network, slack = drawn
    _assert_matches_oracle(network, "CME", "NY4")
    for scope in ("route", "network"):
        assert alternate_path_availability(
            network, network.lowest_latency_route("CME", "NY4"), slack, scope
        ) == nx_oracle.alternate_path_availability(network, "CME", "NY4", slack, scope)
