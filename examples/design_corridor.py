#!/usr/bin/env python3
"""Design your own corridor network (paper §6 takeaways).

Given a market of candidate tower sites (pricier near the geodesic — the
§1 bidding wars), designs a CME→NY4 network under a lease budget:

1. a latency-optimal trunk via a resource-constrained shortest path;
2. greedy 6 GHz bypass augmentation for APA (takeaways 1 and 3);
3. evaluation with the paper's own metrics plus a storm ensemble.

Run:  python examples/design_corridor.py [trunk_budget] [bypass_budget]
"""

from __future__ import annotations

import os
import sys

from repro.analysis.report import format_table
from repro.core.corridor import CME, NY4
from repro.design.evaluate import (
    NetworkDesign,
    corridor_endpoints,
    design_to_network,
    evaluate_design,
    latency_lower_bound_ms,
)
from repro.design.redundancy import augment_with_bypasses
from repro.design.sites import CandidateSite, generate_site_pool
from repro.design.trunk import design_trunk
from repro.geodesy.path import offset_point
from repro.viz.svgmap import render_network_svg


def main() -> None:
    trunk_budget = float(sys.argv[1]) if len(sys.argv) > 1 else 45.0
    bypass_budget = float(sys.argv[2]) if len(sys.argv) > 2 else 18.0

    pool = generate_site_pool(CME.point, NY4.point, n_sites=400, seed=3)
    print(
        f"site market: {len(pool)} candidate towers in a 30 km band; "
        f"budget {trunk_budget:g} (trunk) + {bypass_budget:g} (redundancy)"
    )

    west_gw = CandidateSite(
        "gw-west", offset_point(CME.point, NY4.point, 0.0008, 0.0), 3.0, 0.0
    )
    east_gw = CandidateSite(
        "gw-east", offset_point(CME.point, NY4.point, 0.9992, 0.0), 3.0, 0.0
    )
    trunk = design_trunk(pool, west_gw, east_gw, budget=trunk_budget)
    print(
        f"trunk: {trunk.hop_count} hops, {trunk.microwave_length_m / 1000.0:.2f} km, "
        f"cost {trunk.total_cost:.1f}"
    )

    bypasses = tuple(augment_with_bypasses(trunk, pool, budget=bypass_budget))
    covered = sorted(set().union(*(b.covered_links for b in bypasses))) if bypasses else []
    print(f"redundancy: {len(bypasses)} bypass towers covering {len(covered)} links")

    west, east = corridor_endpoints(CME.point, NY4.point)
    design = NetworkDesign(trunk=trunk, bypasses=bypasses, west=west, east=east)
    report = evaluate_design(design, n_storms=20)
    bound = latency_lower_bound_ms(CME.point, NY4.point)

    print(
        "\n"
        + format_table(
            ("Metric", "Designed network", "Context"),
            [
                ("one-way latency", f"{report.latency_ms:.5f} ms",
                 f"c-bound {bound:.5f}; NLN (paper) 3.96171"),
                ("path stretch", f"{report.stretch:.4f}", "NLN ~1.0013"),
                ("APA (5% slack)", f"{report.apa:.0%}", "NLN 54%, WH 85%"),
                ("storm survival", f"{report.storm_survival:.0%}",
                 "NLN ~33%, WH 100% on the same ensemble"),
                ("towers on path", str(report.tower_count), "NLN 25, JM 22"),
                ("median hop", f"{report.median_hop_km:.1f} km", "WH 36, NLN 48.5"),
                ("total annual cost", f"{report.total_cost:.1f}", ""),
            ],
            title="Design report",
        )
    )

    network = design_to_network(design)
    os.makedirs("out", exist_ok=True)
    render_network_svg(network, "out/designed_network.svg",
                       highlight_route=("WEST", "EAST"))
    print("\nwrote out/designed_network.svg")


if __name__ == "__main__":
    main()
