"""The networkx routing and APA the stdlib Dijkstra replaced.

Production routing has one shortest-path search, :func:`repro.core.network
.dijkstra`, over :class:`~repro.core.network.HftNetwork`'s cached
adjacency; lowest-latency routes, connectivity and alternate path
availability all run it.  This module keeps the networkx implementations
they were derived from, over :attr:`HftNetwork.graph`, as test oracles:

* :func:`edge_weight` — the Dijkstra weight: propagation latency plus half
  the per-tower overhead for each tower endpoint;
* :func:`lowest_latency_route` — ``nx.single_source_dijkstra`` under that
  weight, summarised into a :class:`~repro.core.network.Route`;
* :func:`is_connected` — ``nx.has_path``;
* :func:`alternate_path_availability` — APA by removing each candidate
  link from a graph copy, ``nx.dijkstra_path_length`` on propagation
  latency, and adding the link back.

The equivalence tests hold the production paths to these exactly: same
route nodes (tie-breaks included), same float bits, same APA.
"""

from __future__ import annotations

import networkx as nx

from repro.constants import APA_SLACK_FACTOR
from repro.core.network import HftNetwork, Route
from repro.core.apa import latency_bound_s


def edge_weight(network: HftNetwork, u: str, v: str, data: dict) -> float:
    """Dijkstra weight: propagation latency plus half the per-tower
    overhead for each tower endpoint (so a path through n towers pays
    exactly n overheads)."""
    weight = data["latency_s"]
    overhead = network.latency_model.per_tower_overhead_s
    if overhead:
        if u in network.towers:
            weight += overhead / 2.0
        if v in network.towers:
            weight += overhead / 2.0
    return weight


def is_connected(network: HftNetwork, source: str, target: str) -> bool:
    graph = network.graph
    if source not in graph or target not in graph:
        return False
    return nx.has_path(graph, source, target)


def lowest_latency_route(network: HftNetwork, source: str, target: str) -> Route | None:
    graph = network.graph
    if source not in graph or target not in graph:
        return None
    try:
        latency, nodes = nx.single_source_dijkstra(
            graph,
            source,
            target,
            weight=lambda u, v, data: edge_weight(network, u, v, data),
        )
    except nx.NetworkXNoPath:
        return None
    length = 0.0
    mw_length = 0.0
    fiber_length = 0.0
    for u, v in zip(nodes, nodes[1:]):
        data = graph.edges[u, v]
        length += data["length_m"]
        if data["medium"] == "microwave":
            mw_length += data["length_m"]
        else:
            fiber_length += data["length_m"]
    return Route(
        source=source,
        target=target,
        nodes=tuple(nodes),
        latency_s=latency,
        length_m=length,
        microwave_length_m=mw_length,
        fiber_length_m=fiber_length,
        tower_count=sum(1 for node in nodes if node in network.towers),
    )


def alternate_path_availability(
    network: HftNetwork,
    source: str,
    target: str,
    slack: float = APA_SLACK_FACTOR,
    scope: str = "route",
) -> float:
    route = lowest_latency_route(network, source, target)
    if route is None:
        return 0.0
    bound = latency_bound_s(network, source, target, slack)
    if route.latency_s > bound:
        return 0.0

    graph = network.graph
    if scope == "route":
        candidates = [
            (u, v)
            for u, v in zip(route.nodes, route.nodes[1:])
            if graph.edges[u, v]["medium"] == "microwave"
        ]
    else:
        candidates = [
            (u, v)
            for u, v, data in graph.edges(data=True)
            if data["medium"] == "microwave"
        ]
    if not candidates:
        return 0.0

    work = graph.copy()
    removable = 0
    for u, v in candidates:
        data = work.edges[u, v]
        work.remove_edge(u, v)
        try:
            latency = nx.dijkstra_path_length(work, source, target, weight="latency_s")
            if latency <= bound:
                removable += 1
        except nx.NetworkXNoPath:
            pass
        work.add_edge(u, v, **data)
    return removable / len(candidates)
