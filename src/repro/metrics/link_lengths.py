"""Link-length distributions on near-optimal paths (Fig 4a).

    "For each network, we compute all loop-free paths between CME and NY4
    that achieve latency within 5% of the c-speed latency along the
    geodesic.  Fig 4(a) plots the CDFs of tower-to-tower link lengths for
    all MW links on such paths."
"""

from __future__ import annotations

from repro.constants import APA_SLACK_FACTOR
from repro.core.apa import latency_bound_s
from repro.core.network import HftNetwork
from repro.core.routing import (
    edges_within_latency_bound,
    enumerate_paths_within_bound,
    iterate_microwave_edges,
)
from repro.metrics.cdf import EmpiricalCdf


def near_optimal_link_lengths_km(
    network: HftNetwork,
    source: str,
    target: str,
    slack: float = APA_SLACK_FACTOR,
    method: str = "edges",
    max_paths: int = 100_000,
) -> list[float]:
    """Lengths (km) of MW links on near-optimal source→target paths.

    ``method="edges"`` (default) uses the polynomial-time per-edge
    near-optimality test; ``method="enumerate"`` enumerates the loop-free
    paths explicitly and unions their edges — exact but exponential in the
    bypass count, useful for validating the default on small networks.
    """
    bound = latency_bound_s(network, source, target, slack)
    graph = network.graph
    if method == "edges":
        edge_keys = edges_within_latency_bound(graph, source, target, bound)
    elif method == "enumerate":
        paths = enumerate_paths_within_bound(graph, source, target, bound, max_paths)
        edge_keys = set()
        for path in paths:
            edge_keys.update(
                frozenset((u, v)) for u, v in zip(path.nodes, path.nodes[1:])
            )
    else:
        raise ValueError(f"unknown method: {method!r}")
    return [
        data["length_m"] / 1000.0
        for _, _, data in iterate_microwave_edges(graph, edge_keys)
    ]


def link_length_cdf(
    network: HftNetwork,
    source: str,
    target: str,
    slack: float = APA_SLACK_FACTOR,
) -> EmpiricalCdf:
    """Empirical CDF of near-optimal link lengths (km); Fig 4a's series."""
    lengths = near_optimal_link_lengths_km(network, source, target, slack)
    if not lengths:
        raise ValueError(
            f"{network.licensee} has no near-optimal {source}-{target} links"
        )
    return EmpiricalCdf(lengths)


def median_link_length_km(
    network: HftNetwork, source: str, target: str, slack: float = APA_SLACK_FACTOR
) -> float:
    """The median the paper quotes (WH 36 km vs NLN 48.5 km)."""
    return link_length_cdf(network, source, target, slack).median
