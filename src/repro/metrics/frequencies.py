"""Operating-frequency distributions (Fig 4b).

    "Fig 4(b) shows the frequencies used between CME and NY4 for MW links
    on the shortest path for each network. ... we also show the
    frequencies on alternate paths for NLN, using the same alternate paths
    as above."

Frequencies are reported in GHz.  Each MW link contributes every frequency
licensed on it (a link licensed on two channels contributes two samples),
matching the paper's per-frequency CDF.
"""

from __future__ import annotations

from repro.constants import APA_SLACK_FACTOR
from repro.core.apa import latency_bound_s
from repro.core.network import HftNetwork
from repro.core.routing import (
    alternate_edges,
    iterate_microwave_edges,
)
from repro.metrics.cdf import EmpiricalCdf


def shortest_path_frequencies_ghz(
    network: HftNetwork, source: str, target: str
) -> list[float]:
    """All licensed frequencies (GHz) on the lowest-latency route's MW links."""
    route = network.lowest_latency_route(source, target)
    if route is None:
        return []
    frequencies: list[float] = []
    for link_frequencies in network.route_frequencies_mhz(route):
        frequencies.extend(freq / 1000.0 for freq in link_frequencies)
    return sorted(frequencies)


def alternate_path_frequencies_ghz(
    network: HftNetwork,
    source: str,
    target: str,
    slack: float = APA_SLACK_FACTOR,
) -> list[float]:
    """Frequencies (GHz) on near-optimal links that are off the shortest path.

    This is the paper's "NLN-alternate" series: the alternate paths are the
    same near-optimal paths used for the link-length analysis.
    """
    route = network.lowest_latency_route(source, target)
    if route is None:
        return []
    bound = latency_bound_s(network, source, target, slack)
    graph = network.graph
    edge_keys = alternate_edges(graph, source, target, bound, route.nodes)
    frequencies: list[float] = []
    for _, _, data in iterate_microwave_edges(graph, edge_keys):
        frequencies.extend(freq / 1000.0 for freq in data["frequencies_mhz"])
    return sorted(frequencies)


def frequency_cdf(frequencies_ghz: list[float]) -> EmpiricalCdf:
    """Empirical CDF over a frequency sample (Fig 4b's series)."""
    if not frequencies_ghz:
        raise ValueError("no frequencies to analyse")
    return EmpiricalCdf(frequencies_ghz)


def fraction_below_ghz(frequencies_ghz: list[float], threshold_ghz: float) -> float:
    """Fraction of frequencies strictly below a threshold.

    The paper's headline statistic: ">94% of [WH's] frequencies are under
    7 GHz"; "at least 18% of [NLN-alternate] frequencies lie in the 6 GHz
    band".
    """
    return frequency_cdf(frequencies_ghz).fraction_below(threshold_ghz)
