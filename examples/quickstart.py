#!/usr/bin/env python3
"""Quickstart: reconstruct an HFT network and estimate its latency.

Builds the calibrated ``paper2020`` corridor scenario (synthetic FCC
license data), reconstructs New Line Networks — the fastest network of
the paper's Table 1 — as of 1 April 2020, routes CME → NY4, and exports
the network as YAML.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from pathlib import Path

import repro


def main() -> None:
    scenario = repro.paper2020_scenario()
    print(f"scenario: {len(scenario.database)} licenses, "
          f"{len(scenario.database.licensee_names())} licensees, "
          f"snapshot {scenario.snapshot_date}")

    reconstructor = repro.NetworkReconstructor(scenario.corridor)
    network = reconstructor.reconstruct_licensee(
        scenario.database, "New Line Networks", scenario.snapshot_date
    )
    print(f"\n{network.licensee}: {network.tower_count} towers, "
          f"{network.link_count} microwave links")

    for target in ("NY4", "NYSE", "NASDAQ"):
        route = network.lowest_latency_route("CME", target)
        geodesic_km = scenario.corridor.geodesic_m("CME", target) / 1000.0
        print(
            f"  CME -> {target:6s}: {route.latency_ms:.5f} ms one-way over "
            f"{route.tower_count} towers "
            f"({route.microwave_length_m / 1000.0:.1f} km MW + "
            f"{route.fiber_length_m / 1000.0:.2f} km fiber; "
            f"geodesic {geodesic_km:.0f} km)"
        )

    # The paper's headline redundancy metric.
    apa = repro.alternate_path_availability(
        network, network.lowest_latency_route("CME", "NY4")
    )
    print(f"\nalternate path availability (CME-NY4): {apa:.0%}")

    out = Path("out")
    out.mkdir(exist_ok=True)
    path = out / "new_line_networks_2020-04-01.yaml"
    repro.network_to_yaml(network, path)
    print(f"wrote {path} ({path.stat().st_size} bytes of human-readable YAML)")


if __name__ == "__main__":
    main()
