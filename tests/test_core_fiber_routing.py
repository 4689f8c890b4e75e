"""Tests for fiber-tail attachment (the object-kernel oracle) and
near-optimal routing."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.corridor import DataCenterSite
from repro.core.network import Tower
from repro.core.routing import (
    PathExplosionError,
    alternate_edges,
    edges_within_latency_bound,
    enumerate_paths_within_bound,
    path_edges,
)
from repro.geodesy import GeoPoint, geodesic_destination
from tests.object_kernel import attach_fiber_tails

DC = DataCenterSite("CME", GeoPoint(41.75, -88.00))


def _tower(name: str, bearing: float, distance_m: float) -> Tower:
    return Tower(name, geodesic_destination(DC.point, bearing, distance_m))


class TestFiberTails:
    def test_nearest_mode_attaches_one_tail(self):
        towers = [_tower("a", 90.0, 1_000.0), _tower("b", 90.0, 20_000.0)]
        tails = attach_fiber_tails([DC], towers, mode="nearest")
        assert len(tails) == 1
        assert tails[0].tower_id == "a"
        assert tails[0].length_m == pytest.approx(1_000.0, abs=0.5)

    def test_all_mode_attaches_every_tower_in_range(self):
        towers = [
            _tower("a", 90.0, 1_000.0),
            _tower("b", 90.0, 20_000.0),
            _tower("c", 90.0, 60_000.0),  # beyond 50 km
        ]
        tails = attach_fiber_tails([DC], towers, mode="all")
        assert {tail.tower_id for tail in tails} == {"a", "b"}

    def test_out_of_range_unattached(self):
        tails = attach_fiber_tails([DC], [_tower("far", 90.0, 51_000.0)])
        assert tails == []

    def test_custom_radius(self):
        tails = attach_fiber_tails(
            [DC], [_tower("far", 90.0, 51_000.0)], max_tail_m=60_000.0
        )
        assert len(tails) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            attach_fiber_tails([DC], [], max_tail_m=-1.0)
        with pytest.raises(ValueError):
            attach_fiber_tails([DC], [], mode="some")


def _ladder_graph() -> nx.Graph:
    """s - a - b - t with a parallel bypass a - x - b, plus a dead-end spur.

    Latencies: direct a-b = 10; bypass a-x-b = 6+6=12; spur b-d = 1.
    """
    graph = nx.Graph()
    for u, v, latency in [
        ("s", "a", 5.0),
        ("a", "b", 10.0),
        ("b", "t", 5.0),
        ("a", "x", 6.0),
        ("x", "b", 6.0),
        ("b", "d", 1.0),
    ]:
        graph.add_edge(u, v, latency_s=latency, medium="microwave", length_m=latency)
    return graph


class TestBoundedEnumeration:
    def test_finds_both_paths_within_generous_bound(self):
        paths = enumerate_paths_within_bound(_ladder_graph(), "s", "t", 25.0)
        assert [p.nodes for p in paths] == [
            ("s", "a", "b", "t"),
            ("s", "a", "x", "b", "t"),
        ]
        assert paths[0].latency_s == 20.0
        assert paths[1].latency_s == 22.0

    def test_tight_bound_excludes_bypass(self):
        paths = enumerate_paths_within_bound(_ladder_graph(), "s", "t", 21.0)
        assert len(paths) == 1

    def test_unreachable_bound(self):
        assert enumerate_paths_within_bound(_ladder_graph(), "s", "t", 19.0) == []

    def test_missing_nodes(self):
        assert enumerate_paths_within_bound(_ladder_graph(), "s", "zz", 100.0) == []

    def test_explosion_cap(self):
        # A chain of n diamonds has 2^n shortest-ish paths.
        graph = nx.Graph()
        previous = "n0"
        for index in range(14):
            top, bottom, nxt = f"t{index}", f"b{index}", f"n{index + 1}"
            for u, v in [(previous, top), (previous, bottom), (top, nxt), (bottom, nxt)]:
                graph.add_edge(u, v, latency_s=1.0, medium="microwave", length_m=1.0)
            previous = nxt
        with pytest.raises(PathExplosionError):
            enumerate_paths_within_bound(graph, "n0", previous, 1e9, max_paths=1000)


class TestEdgeCriterion:
    def test_matches_enumeration_on_ladder(self):
        graph = _ladder_graph()
        bound = 25.0
        from_enumeration = set()
        for path in enumerate_paths_within_bound(graph, "s", "t", bound):
            from_enumeration |= path_edges(path.nodes)
        assert edges_within_latency_bound(graph, "s", "t", bound) == from_enumeration

    def test_dead_end_spur_excluded(self):
        edges = edges_within_latency_bound(_ladder_graph(), "s", "t", 100.0)
        assert frozenset(("b", "d")) not in edges

    def test_tight_bound_excludes_bypass_edges(self):
        edges = edges_within_latency_bound(_ladder_graph(), "s", "t", 21.0)
        assert edges == {
            frozenset(("s", "a")),
            frozenset(("a", "b")),
            frozenset(("b", "t")),
        }

    def test_alternate_edges_are_off_shortest_path(self):
        graph = _ladder_graph()
        shortest = ("s", "a", "b", "t")
        alternates = alternate_edges(graph, "s", "t", 25.0, shortest)
        assert alternates == {frozenset(("a", "x")), frozenset(("x", "b"))}

    def test_empty_when_nodes_missing(self):
        assert edges_within_latency_bound(_ladder_graph(), "zz", "t", 10.0) == set()


class TestEdgeCriterionProperty:
    """The polynomial edge criterion vs exact enumeration, randomised."""

    @staticmethod
    def _random_layered_graph(rng_seed: int):
        """A corridor-shaped random graph: layered west→east with skip
        links, plus random dead-end stubs."""
        import random as _random

        import networkx as _nx

        rng = _random.Random(rng_seed)
        graph = _nx.Graph()
        layers = rng.randint(3, 6)
        width = rng.randint(1, 3)
        nodes_by_layer = [["s"]]
        for layer in range(1, layers):
            nodes_by_layer.append([f"n{layer}_{i}" for i in range(width)])
        nodes_by_layer.append(["t"])
        for a_layer, b_layer in zip(nodes_by_layer, nodes_by_layer[1:]):
            for a in a_layer:
                for b in b_layer:
                    if rng.random() < 0.8:
                        graph.add_edge(
                            a, b,
                            latency_s=rng.uniform(1.0, 5.0),
                            medium="microwave",
                            length_m=1.0,
                        )
        # Dead-end stubs that must never appear in near-optimal sets.
        for index in range(rng.randint(0, 3)):
            anchor_layer = rng.choice(nodes_by_layer[1:-1])
            anchor = rng.choice(anchor_layer)
            graph.add_edge(
                anchor, f"stub{index}",
                latency_s=0.1, medium="microwave", length_m=1.0,
            )
        return graph

    @given(st.integers(0, 500), st.floats(1.0, 1.6))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, seed, slack):
        from hypothesis import assume

        graph = self._random_layered_graph(seed)
        assume("s" in graph and "t" in graph and nx.has_path(graph, "s", "t"))
        best = nx.dijkstra_path_length(graph, "s", "t", weight="latency_s")
        bound = best * slack
        exact_edges = set()
        for path in enumerate_paths_within_bound(graph, "s", "t", bound):
            exact_edges |= path_edges(path.nodes)
        criterion_edges = edges_within_latency_bound(graph, "s", "t", bound)
        # The criterion is sound (never misses a real edge); on layered
        # graphs, where partial paths cannot share interior nodes
        # accidentally, it is exact.
        assert exact_edges <= criterion_edges
        assert criterion_edges == exact_edges
