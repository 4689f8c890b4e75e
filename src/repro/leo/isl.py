"""+Grid inter-satellite link topology.

Each satellite keeps four laser links: to its two intra-plane neighbours
and to the same-slot satellite in each adjacent plane — the standard
"+Grid" used in LEO networking studies.  Edges are weighted with
propagation latency at c.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.constants import SPEED_OF_LIGHT
from repro.leo.constellation import Constellation

if TYPE_CHECKING:  # pragma: no cover - networkx loads only where a graph is used
    import networkx as nx


def isl_graph(constellation: Constellation) -> nx.Graph:
    """The +Grid ISL graph; nodes are (plane, slot), edges carry
    ``length_m`` and ``latency_s``."""
    import networkx as nx

    shell = constellation.shell
    graph = nx.Graph()
    for sat in constellation.satellites:
        graph.add_node(sat.key, satellite=sat)
    for sat in constellation.satellites:
        up_slot = (sat.slot + 1) % shell.sats_per_plane
        right_plane = (sat.plane + 1) % shell.n_planes
        for neighbor_key in ((sat.plane, up_slot), (right_plane, sat.slot)):
            neighbor = constellation.satellite(*neighbor_key)
            length = sat.distance_to(neighbor)
            graph.add_edge(
                sat.key,
                neighbor.key,
                length_m=length,
                latency_s=length / SPEED_OF_LIGHT,
            )
    return graph
