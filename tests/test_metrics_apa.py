"""Tests for alternate path availability on controlled topologies."""

from __future__ import annotations

import datetime as dt
import math
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.corridor import DataCenterSite
from repro.core.network import FiberTail, HftNetwork, MicrowaveLink, Tower
from repro.geodesy import GeoPoint, geodesic_distance, geodesic_interpolate
from repro.geodesy.path import offset_point
from repro.core.apa import (
    alternate_path_availability,
    apa_percent,
    latency_bound_s,
    removable_links,
)

WEST = DataCenterSite("CME", GeoPoint(41.7580, -88.1801))
EAST = DataCenterSite("NY4", GeoPoint(40.7773, -74.0700))
#: A data center ~10 km east of WEST, for small hand-built graphs.
NEAR_EAST = DataCenterSite("NY4", GeoPoint(41.7580, -88.0601))


def _network(n_links: int = 10, bypassed: tuple[int, ...] = (), stretch_amp: float = 0.0):
    """A corridor chain with optional parallel bypasses of given links."""
    margin = 0.001
    fractions = [margin + f * (1 - 2 * margin) / n_links for f in range(n_links + 1)]
    chain = geodesic_interpolate(WEST.point, EAST.point, fractions)
    towers = [Tower(f"t{i}", p) for i, p in enumerate(chain)]
    links = [
        MicrowaveLink(f"t{i}", f"t{i+1}", geodesic_distance(a, b))
        for i, (a, b) in enumerate(zip(chain, chain[1:]))
    ]
    for index in bypassed:
        b_point = offset_point(chain[index], chain[index + 1], 0.5, 5_000.0 + stretch_amp)
        towers.append(Tower(f"b{index}", b_point))
        links.append(
            MicrowaveLink(f"t{index}", f"b{index}", geodesic_distance(chain[index], b_point))
        )
        links.append(
            MicrowaveLink(
                f"b{index}", f"t{index+1}", geodesic_distance(b_point, chain[index + 1])
            )
        )
    tails = [
        FiberTail("CME", "t0", geodesic_distance(WEST.point, chain[0])),
        FiberTail("NY4", f"t{n_links}", geodesic_distance(EAST.point, chain[-1])),
    ]
    return HftNetwork(
        "Demo", dt.date(2020, 4, 1), towers, links, tails, [WEST, EAST]
    )


def _route(network: HftNetwork):
    return network.lowest_latency_route("CME", "NY4")


class TestApa:
    def test_pure_chain_scores_zero(self):
        network = _network()
        assert alternate_path_availability(network, _route(network)) == 0.0

    def test_fully_bypassed_chain_scores_one(self):
        network = _network(n_links=6, bypassed=tuple(range(6)))
        assert alternate_path_availability(network, _route(network)) == 1.0

    def test_partial_coverage_fraction(self):
        network = _network(n_links=10, bypassed=(2, 5, 7))
        assert alternate_path_availability(network, _route(network)) == pytest.approx(0.3)
        assert apa_percent(network, _route(network)) == 30

    def test_disconnected_network_scores_zero(self):
        network = _network()
        network.fiber_tails = network.fiber_tails[:1]
        network.__dict__.pop("graph", None)
        assert alternate_path_availability(network, _route(network)) == 0.0

    def test_over_bound_network_scores_zero_even_with_bypasses(self):
        # A network whose intact latency exceeds 1.05x the geodesic bound
        # scores 0 regardless of redundancy (Table 1's slow networks).
        network = _network(n_links=6, bypassed=tuple(range(6)))
        bound = latency_bound_s(network, "CME", "NY4", slack=1.0000001)
        assert alternate_path_availability(
            network, _route(network), slack=1.0000001
        ) == 0.0

    def test_slack_monotonicity(self):
        network = _network(n_links=10, bypassed=(2, 5))
        loose = alternate_path_availability(network, _route(network), slack=1.10)
        tight = alternate_path_availability(network, _route(network), slack=1.02)
        assert loose >= tight

    def test_network_scope_counts_all_links(self):
        # Scope "network" also counts the bypass links themselves (each is
        # removable: the direct link remains), so the fraction rises.
        network = _network(n_links=10, bypassed=(2,))
        route = _route(network)
        route_scope = alternate_path_availability(network, route, scope="route")
        network_scope = alternate_path_availability(network, route, scope="network")
        assert network_scope > route_scope

    def test_rejects_unknown_scope(self):
        network = _network()
        with pytest.raises(ValueError):
            alternate_path_availability(network, _route(network), scope="bogus")

    def test_rejects_nonpositive_slack(self):
        with pytest.raises(ValueError):
            latency_bound_s(_network(), "CME", "NY4", slack=0.0)

    @pytest.mark.parametrize("slack", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_slack_before_any_search(self, slack):
        # A disconnected network has no route (None), so only an up-front
        # check can refuse the slack.
        disconnected = _network()
        disconnected.fiber_tails = disconnected.fiber_tails[:1]
        for network in (_network(), disconnected):
            with pytest.raises(ValueError, match="slack"):
                alternate_path_availability(network, _route(network), slack=slack)
        with pytest.raises(ValueError, match="slack"):
            latency_bound_s(_network(), "CME", "NY4", slack=slack)

    def test_bound_is_slack_times_geodesic(self):
        network = _network()
        bound = latency_bound_s(network, "CME", "NY4", slack=1.05)
        geodesic = geodesic_distance(WEST.point, EAST.point)
        assert bound == pytest.approx(1.05 * geodesic / 299_792_458.0)


# ----------------------------------------------------------------------
# Link-by-link decisions
# ----------------------------------------------------------------------


def _skip_search(adjacency, source, target, skip) -> float:
    """The oracle: the least propagation latency, summed left to right,
    over source→target paths that avoid ``skip`` (inf when none does)."""
    best = {source: 0.0}
    done = set()
    heap = [(0.0, source)]
    while heap:
        latency, v = heappop(heap)
        if v == target:
            return latency
        if v in done:
            continue
        done.add(v)
        for u, edge in adjacency[v].items():
            if edge is not skip and latency + edge.latency_s < best.get(u, math.inf):
                best[u] = latency + edge.latency_s
                heappush(heap, (best[u], u))
    return math.inf


def _decide(adjacency, candidates, bound, source="CME", target="NY4"):
    """removable_links' verdicts, checked against the oracle one link at
    a time, and the (bounded, exact) decision counters of the call."""
    with obs.capture() as captured:
        verdicts = removable_links(adjacency, source, target, candidates, bound)
    expected = [_skip_search(adjacency, source, target, e) <= bound for e in candidates]
    assert verdicts == expected
    counters = captured.counters()
    return verdicts, (counters["metrics.apa.bounded"], counters["metrics.apa.exact"])


def _route_links(network: HftNetwork) -> list:
    adjacency = network._adjacency
    nodes = network.lowest_latency_route("CME", "NY4").nodes
    return [adjacency[u][v] for u, v in zip(nodes, nodes[1:]) if adjacency[u][v].medium == "microwave"]


def _small_network(links, tails):
    tower_ids = sorted(
        {t for link in links for t in (link.tower_a, link.tower_b)}
        | {tail.tower_id for tail in tails}
    )
    return HftNetwork(
        "Demo",
        dt.date(2020, 4, 1),
        [Tower(t, GeoPoint(41.7580, -88.12)) for t in tower_ids],
        links,
        tails,
        [WEST, NEAR_EAST],
    )


class TestDecisions:
    """Each way a link gets decided, with the counters that record it."""

    def test_off_the_tree_path(self):
        # The bypass links are not on the shortest path, which survives
        # their removal.
        network = _network(n_links=10, bypassed=(2,))
        adjacency = network._adjacency
        bypass = [adjacency["t2"]["b2"], adjacency["b2"]["t3"]]
        bound = latency_bound_s(network, "CME", "NY4")
        assert _decide(adjacency, bypass, bound) == ([True, True], (2, 0))

    def test_lower_bound(self):
        # A chain: no edge crosses any cut, every lower bound is infinite.
        network = _network()
        bound = latency_bound_s(network, "CME", "NY4")
        assert _decide(network._adjacency, _route_links(network), bound) == (
            [False] * 10,
            (10, 0),
        )

    def test_witness_path(self):
        network = _network(n_links=6, bypassed=tuple(range(6)))
        bound = latency_bound_s(network, "CME", "NY4")
        assert _decide(network._adjacency, _route_links(network), bound) == (
            [True] * 6,
            (6, 0),
        )

    def test_counters_from_the_public_metric(self):
        network = _network(n_links=10, bypassed=(2, 5, 7))
        route = _route(network)
        with obs.capture() as captured:
            assert alternate_path_availability(network, route) == pytest.approx(0.3)
        assert captured.counters() == {"metrics.apa.bounded": 10, "metrics.apa.exact": 0}

    def test_fallback_when_the_bound_sits_inside_the_margin(self):
        # The bound is a hair under link 1's replacement latency: the lower
        # bound cannot refuse it (it is within ε) and the witness is over
        # it, so the skip-search decides.
        network = _network(n_links=4, bypassed=(1,))
        adjacency = network._adjacency
        links = _route_links(network)
        replacement = _skip_search(adjacency, "CME", "NY4", links[1])
        bound = replacement * (1.0 - 1e-10)
        assert _decide(adjacency, links, bound) == ([False] * 4, (3, 1))
        # At the replacement latency itself, the witness decides.
        assert _decide(adjacency, links, replacement) == (
            [False, True, False, False],
            (4, 0),
        )

    def test_fallback_finds_a_path_the_witness_misses(self):
        """Two replacements for t2–t1 have the same real length (1000.1 m +
        1234.567 m = 2234.667 m) but different float sums.  The cut's
        witness is CME–t2–t3–t1–t4–NY4; the float minimum is
        CME–t2–t3–t4–NY4, and the bound is exactly that minimum."""
        links = [
            MicrowaveLink("t1", "t2", 2000.3),
            MicrowaveLink("t3", "t4", 2234.667),
            MicrowaveLink("t2", "t3", 3234.5671),
            MicrowaveLink("t1", "t4", 1234.567),
            MicrowaveLink("t1", "t3", 1000.1),
        ]
        tails = [FiberTail("CME", "t2", 750.0), FiberTail("NY4", "t4", 0.0)]
        network = _small_network(links, tails)
        adjacency = network._adjacency
        route = _route_links(network)
        assert route == [adjacency["t2"]["t1"], adjacency["t1"]["t4"]]
        bound = _skip_search(adjacency, "CME", "NY4", adjacency["t2"]["t1"])
        assert bound == 2.1995997310913004e-05
        assert _decide(adjacency, route, bound) == ([True, True], (1, 1))

    def test_witness_through_the_removed_link_is_refused(self):
        """A 1e-12 m link A–B vanishes from every float sum, so the two
        trees can disagree about y: the source tree reaches y through B,
        the target tree leaves y through z, A and the link itself.  That
        walk sums one float below the real replacement CME–A–z–y–B–NY4;
        with the bound there, it must not count as a witness."""
        links = [
            MicrowaveLink("A", "B", 1e-12),
            MicrowaveLink("A", "z", 14_335.513),
            MicrowaveLink("z", "y", 26_954.519),
            MicrowaveLink("B", "y", 41_290.032),
        ]
        tails = [FiberTail("CME", "A", 19_250.0), FiberTail("NY4", "B", 12_800.24)]
        network = _small_network(links, tails)
        adjacency = network._adjacency
        link = adjacency["A"]["B"]
        assert _route_links(network) == [link]
        replacement = _skip_search(adjacency, "CME", "NY4", link)
        assert _decide(adjacency, [link], replacement) == ([True], (0, 1))
        below = math.nextafter(replacement, 0.0)
        assert _decide(adjacency, [link], below) == ([False], (0, 1))


@st.composite
def _graphs(draw):
    """A small network, every adjacency entry as a candidate, and a bound:
    from a slack, or exactly a candidate's replacement latency (a drawn
    tie), or one float either side of it."""
    n = draw(st.integers(2, 8))
    tower = st.integers(0, n - 1).map(lambda i: f"t{i}")
    pairs = draw(
        st.lists(st.tuples(tower, tower).filter(lambda p: p[0] != p[1]), max_size=16)
    )
    # Equal and near-equal sums are common with these: 1000.1 + 1234.567
    # is 2234.667.
    lengths = st.sampled_from((1_000.0, 2_000.0, 2_500.5, 1_000.1, 1_234.567, 2_234.667))
    links = [MicrowaveLink(a, b, draw(lengths)) for a, b in pairs]
    tails = [
        FiberTail(dc, draw(tower), draw(st.sampled_from((0.0, 100.0, 750.0))))
        for dc in draw(st.lists(st.sampled_from(("CME", "NY4")), max_size=4))
    ]
    network = _small_network(links, tails)
    adjacency = network._adjacency
    candidates = list({id(e): e for row in adjacency.values() for e in row.values()}.values())
    replacements = sorted(
        {_skip_search(adjacency, "CME", "NY4", e) for e in candidates} - {math.inf}
    )
    kind = draw(st.sampled_from(("slack", "tie", "below", "above")))
    if kind == "slack" or not replacements:
        bound = latency_bound_s(network, "CME", "NY4", draw(st.floats(0.5, 6.0)))
    else:
        bound = draw(st.sampled_from(replacements))
        if kind != "tie":
            bound = math.nextafter(bound, 0.0 if kind == "below" else math.inf)
    return adjacency, candidates, bound


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_random_decisions_match_skip_search(drawn):
    adjacency, candidates, bound = drawn
    if "CME" in adjacency and "NY4" in adjacency:
        _, (bounded, exact) = _decide(adjacency, candidates, bound)
        assert bounded + exact == len(candidates)
