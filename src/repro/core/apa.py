"""Alternate path availability (APA) — the paper's redundancy metric (§5).

    "For each network, we find the fraction of links that can be removed
    such that the latency of the remaining network is not more than 5%
    greater than the c-speed latency along the geodesic."

The metric is adapted from Gvozdiev et al. (SIGCOMM 2018).  We evaluate it
over the microwave links of the network's lowest-latency route (the links
whose removal actually threatens the end-to-end service).  The caller
passes that route in: this module never searches for it, so
:meth:`repro.core.engine.CorridorEngine.route` stays the one route
search, and :meth:`~repro.core.engine.CorridorEngine.apa` caches the
result beside it per snapshot key (DESIGN.md §18).  A strict chain
scores 0, a fully bypassed trunk scores 1.  Networks whose intact latency
already exceeds the bound score 0 — consistent with Table 1, where every
network slower than 1.05× the geodesic c-latency reports an APA of 0.

A link is removable when :func:`repro.core.network.dijkstra`, skipping
it, still finds a propagation latency ≤ the bound.  :func:`removable_links`
decides every candidate from two shortest-path trees, one from each data
center (replacement paths, Malik, Mittal & Gupta 1989), and runs that
skip-search only where the trees cannot settle the question (DESIGN.md
§18).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from operator import itemgetter

from repro import obs
from repro.constants import APA_SLACK_FACTOR
from repro.core.latency import LatencyModel
from repro.core.network import (
    PROPAGATION_LATENCY,
    Adjacency,
    Edge,
    HftNetwork,
    Route,
    dijkstra,
)
from repro.geodesy import geodesic_distance

#: Relative margin on the lower-bound rule.  A float sum over n hops is
#: within n·2⁻⁵³ of its real value, relative, so a computed lower bound
#: above ``bound·(1+ε)`` proves every replacement path's float latency is
#: above ``bound`` for any path of fewer than ~4·10⁶ hops.
_EPSILON = 1e-9


def _check_slack(slack: float) -> None:
    if not 0.0 < slack < math.inf:
        raise ValueError(f"slack must be finite and positive, got {slack!r}")


def latency_bound_s(
    network: HftNetwork, source: str, target: str, slack: float = APA_SLACK_FACTOR
) -> float:
    """The APA latency bound: slack × (geodesic distance / c)."""
    _check_slack(slack)
    distance = geodesic_distance(
        network.data_centers[source].point, network.data_centers[target].point
    )
    model: LatencyModel = network.latency_model
    return slack * model.geodesic_latency_s(distance)


def _tree(
    adjacency: Adjacency, root: str, limit: float
) -> tuple[dict[str, float], dict[str, tuple[str, Edge]]]:
    """The propagation-latency shortest-path tree from ``root``, cut at
    ``limit``: node → distance for every node within it (in the order the
    search settles them, a parent before its children), and node →
    (parent, edge).  Each distance is the float sum along its tree path."""
    dist: dict[str, float] = {}
    seen = {root: 0.0}
    parent: dict[str, tuple[str, Edge]] = {}
    fringe = [(0.0, root)]
    while fringe:
        dist_v, v = heappop(fringe)
        if v in dist:
            continue
        if dist_v > limit:
            break
        dist[v] = dist_v
        for u, edge in adjacency[v].items():
            if u in dist:
                continue
            dist_u = dist_v + edge.latency_s
            if u not in seen or dist_u < seen[u]:
                seen[u] = dist_u
                parent[u] = (v, edge)
                heappush(fringe, (dist_u, u))
    return dist, parent


def removable_links(
    adjacency: Adjacency,
    source: str,
    target: str,
    candidates: list[Edge],
    bound: float,
) -> list[bool]:
    """For each candidate edge: does a source→target path of propagation
    latency ≤ ``bound`` avoid it?

    Each answer equals ``dijkstra(adjacency, source, target,
    PROPAGATION_LATENCY, skip=edge)[0] <= bound``.  Two trees, from the
    source and from the target, settle most of them; the rest run that
    search (DESIGN.md §18).
    """
    limit = bound * (1.0 + _EPSILON)
    dist_s, parent_s = _tree(adjacency, source, limit)
    if target not in dist_s:
        # Every path is longer than the limit, with or without a link.
        obs.count("metrics.apa.bounded", len(candidates))
        obs.count("metrics.apa.exact", 0)
        return [False] * len(candidates)
    dist_t, parent_t = _tree(adjacency, target, limit)

    # The source tree's path p_0 = source … p_k = target; path edge j
    # joins p_j and p_j+1.
    path = [target]
    while path[-1] != source:
        path.append(parent_s[path[-1]][0])
    path.reverse()
    position = {node: j for j, node in enumerate(path)}
    on_path = {id(parent_s[node][1]): j for j, node in enumerate(path[1:])}

    # A node's label: the position where its tree path leaves the s–t
    # path.  Removing path edge j splits the tree into labels ≤ j (the
    # source side) and > j, so any path avoiding it crosses on an edge
    # (x, y) with label(x) ≤ j < label(y), and is no shorter than
    # d_s(x) + w + d_t(y).
    label: dict[str, int] = {}
    for v in dist_s:
        j = position.get(v)
        label[v] = j if j is not None else label[parent_s[v][0]]
    crossings = []
    for x, dist_x in dist_s.items():
        low = label[x]
        for y, edge in adjacency[x].items():
            high = label.get(y)
            if high is None or high <= low or id(edge) in on_path:
                continue
            dist_y = dist_t.get(y)
            if dist_y is not None:
                crossings.append((dist_x + edge.latency_s + dist_y, low, high, x, edge, y))

    # Cheapest first, each crossing claims the positions in [low, high)
    # no cheaper crossing claimed: that position's lower bound and witness.
    k = len(path) - 1
    witness: list[tuple | None] = [None] * k
    next_open = list(range(k + 1))  # a path-halving union-find over positions

    def first_open(j: int) -> int:
        while next_open[j] != j:
            next_open[j] = next_open[next_open[j]]
            j = next_open[j]
        return j

    crossings.sort(key=itemgetter(0))
    for crossing in crossings:
        _, low, high = crossing[:3]
        j = first_open(low)
        while j < high:
            witness[j] = crossing
            next_open[j] = j + 1
            j = first_open(j + 1)

    verdicts = []
    exact = 0
    for edge in candidates:
        j = on_path.get(id(edge))
        if j is None:
            # The tree path avoids the link and is the shortest path.
            verdicts.append(dist_s[target] <= bound)
            continue
        crossing = witness[j]
        if crossing is None or crossing[0] > limit:
            verdicts.append(False)
            continue
        # The witness: tree path to x, the crossing edge, target-tree path
        # from y, summed left to right as a search would.
        _, _, _, x, cross, v = crossing
        latency = dist_s[x] + cross.latency_s
        while v != target and latency <= bound:
            v, step = parent_t[v]
            latency = math.inf if step is edge else latency + step.latency_s
        if latency <= bound:
            verdicts.append(True)
            continue
        exact += 1
        found = dijkstra(adjacency, source, target, PROPAGATION_LATENCY, skip=edge)
        verdicts.append(found is not None and found[0] <= bound)
    obs.count("metrics.apa.bounded", len(candidates) - exact)
    obs.count("metrics.apa.exact", exact)
    return verdicts


def alternate_path_availability(
    network: HftNetwork,
    route: Route | None,
    slack: float = APA_SLACK_FACTOR,
    scope: str = "route",
) -> float:
    """The fraction of removable links, in [0, 1].

    ``route`` is the network's lowest-latency route between two of its
    data centers, as :meth:`repro.core.engine.CorridorEngine.route`
    returns it; ``None`` means no route, which scores 0.  Its endpoints
    are APA's source and target.

    ``scope="route"`` (default) considers the microwave links on that
    route; ``scope="network"`` considers every microwave link (spur
    links then count as trivially removable, which rewards disconnected
    decorations — kept only for sensitivity analysis).
    """
    if scope not in ("route", "network"):
        raise ValueError(f"unknown scope: {scope!r}")
    _check_slack(slack)
    if route is None:
        return 0.0
    source, target = route.source, route.target
    bound = latency_bound_s(network, source, target, slack)
    if route.latency_s > bound:
        return 0.0

    # Each candidate is one shared adjacency entry: removing it removes
    # both directions.  Duplicate filings of one tower pair share one
    # entry, so the network scope counts each pair once.
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
    verdicts = removable_links(adjacency, source, target, candidates, bound)
    return sum(verdicts) / len(candidates)


def whole_percent(fraction: float) -> int:
    """An APA fraction as the whole percentage the paper's tables print."""
    return round(100.0 * fraction)


def apa_percent(
    network: HftNetwork,
    route: Route | None,
    slack: float = APA_SLACK_FACTOR,
    scope: str = "route",
) -> int:
    """APA as the whole percentage the paper's tables print."""
    return whole_percent(alternate_path_availability(network, route, slack, scope))
