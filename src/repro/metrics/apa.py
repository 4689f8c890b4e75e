"""Alternate path availability (APA) — the paper's redundancy metric (§5).

    "For each network, we find the fraction of links that can be removed
    such that the latency of the remaining network is not more than 5%
    greater than the c-speed latency along the geodesic."

The metric is adapted from Gvozdiev et al. (SIGCOMM 2018).  We evaluate it
over the microwave links of the network's lowest-latency route (the links
whose removal actually threatens the end-to-end service); a strict chain
scores 0, a fully bypassed trunk scores 1.  Networks whose intact latency
already exceeds the bound score 0 — consistent with Table 1, where every
network slower than 1.05× the geodesic c-latency reports an APA of 0.
"""

from __future__ import annotations

from repro.constants import APA_SLACK_FACTOR
from repro.core.latency import LatencyModel
from repro.core.network import PROPAGATION_LATENCY, HftNetwork, dijkstra
from repro.geodesy import geodesic_distance


def latency_bound_s(
    network: HftNetwork, source: str, target: str, slack: float = APA_SLACK_FACTOR
) -> float:
    """The APA latency bound: slack × (geodesic distance / c)."""
    if slack <= 0.0:
        raise ValueError("slack must be positive")
    distance = geodesic_distance(
        network.data_centers[source].point, network.data_centers[target].point
    )
    model: LatencyModel = network.latency_model
    return slack * model.geodesic_latency_s(distance)


def alternate_path_availability(
    network: HftNetwork,
    source: str,
    target: str,
    slack: float = APA_SLACK_FACTOR,
    scope: str = "route",
) -> float:
    """The fraction of removable links, in [0, 1].

    ``scope="route"`` (default) considers the microwave links on the
    lowest-latency route; ``scope="network"`` considers every microwave
    link (spur links then count as trivially removable, which rewards
    disconnected decorations — kept only for sensitivity analysis).
    """
    if scope not in ("route", "network"):
        raise ValueError(f"unknown scope: {scope!r}")
    route = network.lowest_latency_route(source, target)
    if route is None:
        return 0.0
    bound = latency_bound_s(network, source, target, slack)
    if route.latency_s > bound:
        return 0.0

    # Each candidate is one shared adjacency entry; the search skips it
    # instead of removing it.  Duplicate filings of one tower pair share
    # one entry, so the network scope counts each pair once.
    adjacency = network._adjacency
    if scope == "route":
        candidates = [
            adjacency[u][v]
            for u, v in zip(route.nodes, route.nodes[1:])
            if adjacency[u][v].medium == "microwave"
        ]
    else:
        edges = (adjacency[link.tower_a][link.tower_b] for link in network.links)
        candidates = list({id(edge): edge for edge in edges}.values())
    if not candidates:
        return 0.0

    removable = 0
    for edge in candidates:
        found = dijkstra(adjacency, source, target, PROPAGATION_LATENCY, skip=edge)
        if found is not None and found[0] <= bound:
            removable += 1
    return removable / len(candidates)


def apa_percent(
    network: HftNetwork,
    source: str,
    target: str,
    slack: float = APA_SLACK_FACTOR,
    scope: str = "route",
) -> int:
    """APA as the whole percentage the paper's tables print."""
    return round(
        100.0 * alternate_path_availability(network, source, target, slack, scope)
    )
