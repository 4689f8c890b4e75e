"""Routing beyond the single shortest path.

The §5 analyses need more than Dijkstra:

* all *loop-free paths* between two data centers whose latency stays
  within a bound (5% above the c-speed geodesic latency) — used for the
  link-length CDFs of Fig 4(a);
* the set of *links* lying on at least one such path — used when full
  enumeration would be combinatorial;
* *alternate-path* edges (near-optimal edges off the shortest path) —
  used for the NLN-alternate frequency CDF of Fig 4(b).

Enumeration is a depth-first search pruned with exact distance-to-target
lower bounds from a reverse Dijkstra, so it only explores prefixes that can
still finish within the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterator

if TYPE_CHECKING:  # pragma: no cover - networkx loads only where a graph is used
    import networkx as nx

Node = Hashable
EdgeKey = frozenset

#: Relative slack absorbing floating-point noise in bound comparisons:
#: two mathematically equal path sums can differ by ~1e-15 relative when
#: accumulated in different orders, which would make a latency bound of
#: exactly the shortest-path latency reject the shortest path itself.
_BOUND_EPSILON = 1e-9


def _within(value: float, bound: float) -> bool:
    """value <= bound, tolerant of accumulation-order float noise."""
    return value <= bound * (1.0 + _BOUND_EPSILON)


class PathExplosionError(RuntimeError):
    """Raised when bounded enumeration exceeds its safety cap."""


def distance_maps(
    graph: nx.Graph, source: Node, target: Node
) -> tuple[dict[Node, float], dict[Node, float]]:
    """Shortest latencies from ``source`` and to ``target`` for all nodes."""
    import networkx as nx

    from_source = nx.single_source_dijkstra_path_length(graph, source, weight="latency_s")
    to_target = nx.single_source_dijkstra_path_length(graph, target, weight="latency_s")
    return from_source, to_target


@dataclass(frozen=True)
class BoundedPath:
    """One loop-free path found within the latency bound."""

    nodes: tuple[Node, ...]
    latency_s: float


def enumerate_paths_within_bound(
    graph: nx.Graph,
    source: Node,
    target: Node,
    latency_bound_s: float,
    max_paths: int = 100_000,
) -> list[BoundedPath]:
    """All loop-free source→target paths with latency ≤ ``latency_bound_s``.

    Exact DFS with admissible pruning: a prefix is extended only while
    ``latency(prefix) + dist_to_target(head) ≤ bound``.  Raises
    :class:`PathExplosionError` if more than ``max_paths`` paths qualify —
    callers that only need the *edges* of such paths should use
    :func:`edges_within_latency_bound` instead, which never explodes.
    """
    import networkx as nx

    if source not in graph or target not in graph:
        return []
    to_target = nx.single_source_dijkstra_path_length(graph, target, weight="latency_s")
    if source not in to_target or not _within(to_target[source], latency_bound_s):
        return []

    paths: list[BoundedPath] = []
    stack: list[Node] = [source]
    on_stack: set[Node] = {source}

    def dfs(node: Node, latency_so_far: float) -> None:
        if node == target:
            paths.append(BoundedPath(nodes=tuple(stack), latency_s=latency_so_far))
            if len(paths) > max_paths:
                raise PathExplosionError(
                    f"more than {max_paths} paths within bound"
                )
            return
        for neighbor in graph.neighbors(node):
            if neighbor in on_stack:
                continue
            edge_latency = graph.edges[node, neighbor]["latency_s"]
            new_latency = latency_so_far + edge_latency
            remaining = to_target.get(neighbor)
            if remaining is None or not _within(new_latency + remaining, latency_bound_s):
                continue
            stack.append(neighbor)
            on_stack.add(neighbor)
            dfs(neighbor, new_latency)
            stack.pop()
            on_stack.remove(neighbor)

    dfs(source, 0.0)
    paths.sort(key=lambda path: path.latency_s)
    return paths


def _avoiding_distance(
    graph: nx.Graph, source: Node, target: Node, avoid: Node
) -> float | None:
    """Shortest latency source→target in ``graph`` minus node ``avoid``."""
    import networkx as nx

    if source == avoid or target == avoid:
        return None
    view = nx.restricted_view(graph, [avoid], [])
    try:
        return nx.dijkstra_path_length(view, source, target, weight="latency_s")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def edges_within_latency_bound(
    graph: nx.Graph,
    source: Node,
    target: Node,
    latency_bound_s: float,
) -> set[frozenset]:
    """Edges lying on at least one near-optimal source→target path.

    An edge (u, v) qualifies iff, in some orientation,
    ``d(source→u avoiding v) + latency(u,v) + d(v→target avoiding u) ≤
    bound``.  The avoid-node refinement rejects dead-end edges (e.g. a
    stub branch towards another data center): the plain
    ``d(s,u)+w+d(v,t)`` test accepts them even though no loop-free path
    uses them, because the return distance doubles back over the edge.
    The two partial paths could in principle still share an interior node
    (making the concatenation non-simple); on corridor-shaped networks,
    where near-optimal partial paths progress monotonically along the
    corridor, this does not occur — and the exact (exponential)
    enumeration in :func:`enumerate_paths_within_bound` is available to
    cross-check on small networks.

    A cheap ``d(s,u)+w+d(v,t)`` pre-filter avoids the two per-edge
    Dijkstras for the vast majority of non-qualifying edges.
    """
    if source not in graph or target not in graph:
        return set()
    from_source, to_target = distance_maps(graph, source, target)
    edges: set[frozenset] = set()
    for u, v, data in graph.edges(data=True):
        latency = data["latency_s"]
        for a, b in ((u, v), (v, u)):
            da = from_source.get(a)
            tb = to_target.get(b)
            if da is None or tb is None or not _within(da + latency + tb, latency_bound_s):
                continue  # fails even the optimistic test
            if a == source:
                d_to_a = 0.0
            else:
                d_avoid = _avoiding_distance(graph, source, a, avoid=b)
                if d_avoid is None:
                    continue
                d_to_a = d_avoid
            if b == target:
                d_from_b = 0.0
            else:
                d_avoid = _avoiding_distance(graph, b, target, avoid=a)
                if d_avoid is None:
                    continue
                d_from_b = d_avoid
            if _within(d_to_a + latency + d_from_b, latency_bound_s):
                edges.add(frozenset((u, v)))
                break
    return edges


def path_edges(nodes: tuple[Node, ...]) -> set[frozenset]:
    """The undirected edge set of a node path."""
    return {frozenset((u, v)) for u, v in zip(nodes, nodes[1:])}


def alternate_edges(
    graph: nx.Graph,
    source: Node,
    target: Node,
    latency_bound_s: float,
    shortest_nodes: tuple[Node, ...],
) -> set[frozenset]:
    """Near-optimal edges that are not on the given shortest path.

    These are the "alternate path" links of §5 (e.g. the NLN-alternate
    frequency series in Fig 4b).
    """
    near_optimal = edges_within_latency_bound(graph, source, target, latency_bound_s)
    return near_optimal - path_edges(shortest_nodes)


def iterate_microwave_edges(
    graph: nx.Graph, edge_keys: set[frozenset]
) -> Iterator[tuple[Node, Node, dict]]:
    """Yield (u, v, data) for the microwave edges among ``edge_keys``."""
    for key in sorted(edge_keys, key=lambda k: sorted(map(str, k))):
        u, v = sorted(key, key=str)
        data = graph.edges[u, v]
        if data["medium"] == "microwave":
            yield (u, v, data)
