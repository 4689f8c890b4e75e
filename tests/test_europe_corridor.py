"""Corridor-agnosticism: the tooling on the London–Frankfurt corridor.

The paper's measurement is US-only (the FCC ULS has no European
counterpart), but the library is corridor-agnostic: these tests build a
synthetic LD4–FR2 scenario and run the full pipeline against it.  Also
holds the regression test for the bypass-shortcut bug this corridor
exposed (bypass towers on the j→j+2 chord can undercut a high-jitter
trunk).
"""

from __future__ import annotations

import datetime as dt

import pytest

from repro.core.corridor import london_frankfurt_corridor
from repro.core.reconstruction import NetworkReconstructor
from repro.core.apa import apa_percent
from repro.metrics.rankings import rank_connected_networks
from repro.scenarios import resolve_scenario
from repro.synth.generator import build_network_licenses
from repro.synth.specs import FrequencyProfile, NetworkSpec


@pytest.fixture(scope="module")
def europe():
    return resolve_scenario("europe2020")


class TestCorridor:
    def test_geodesic(self, europe):
        assert europe.corridor.geodesic_m("LD4", "FR2") / 1000.0 == pytest.approx(
            671.3, abs=0.5
        )

    def test_paths(self, europe):
        assert europe.corridor.paths == (("LD4", "FR2"),)


class TestEuropeScenario:
    def test_rankings_match_targets(self, europe):
        rankings = rank_connected_networks(
            europe.database, europe.corridor, europe.snapshot_date,
            source="LD4", target="FR2",
        )
        assert [r.licensee for r in rankings] == [
            "Channel Wave Networks",
            "Rhine Crossing Comm",
            "Lowland Relay",
        ]
        latencies = {r.licensee: r.latency_ms for r in rankings}
        assert latencies["Channel Wave Networks"] == pytest.approx(2.2460, abs=5e-5)
        assert latencies["Rhine Crossing Comm"] == pytest.approx(2.2488, abs=5e-5)
        assert latencies["Lowland Relay"] == pytest.approx(2.2710, abs=5e-5)

    def test_apa_from_coverage_masks(self, europe):
        rankings = {
            r.licensee: r.apa_percent
            for r in rank_connected_networks(
                europe.database, europe.corridor, europe.snapshot_date,
                source="LD4", target="FR2",
            )
        }
        assert rankings["Channel Wave Networks"] == 31  # 4/13
        assert rankings["Rhine Crossing Comm"] == 50  # 8/16
        assert rankings["Lowland Relay"] == 0

    def test_history_era(self, europe):
        reconstructor = NetworkReconstructor(europe.corridor)
        old = reconstructor.reconstruct_licensee(
            europe.database, "Channel Wave Networks", dt.date(2016, 1, 1)
        )
        route = old.lowest_latency_route("LD4", "FR2")
        assert route.latency_ms == pytest.approx(2.2600, abs=5e-5)

    def test_no_chicago_names_leak(self, europe):
        with pytest.raises(KeyError):
            europe.corridor.site("CME")


class TestBypassShortcutRegression:
    def test_high_jitter_trunk_not_shortcut_by_bypasses(self):
        """With the target far above the geodesic the trunk carries heavy
        lateral jitter; bypasses must still not undercut it."""
        corridor = london_frankfurt_corridor()
        spec = NetworkSpec(
            name="Jittery Net",
            callsign_prefix="GBJN",
            seed=77,
            trunk_links=12,
            ny4_target_ms=2.2800,  # ~+12 km of jitter over the geodesic
            frequency_profile=FrequencyProfile(trunk_bands=(("11GHz", 1.0),)),
            trunk_bypass_covered=(1, 2, 4, 5, 7, 8, 10),
            gateway_west_km=0.7,
            gateway_east_km=0.6,
        )
        licenses = build_network_licenses(spec, corridor)
        network = NetworkReconstructor(corridor).reconstruct(
            licenses, dt.date(2020, 4, 1)
        )
        route = network.lowest_latency_route("LD4", "FR2")
        # The calibrated target is hit exactly: no bypass stole the path.
        assert route.latency_ms == pytest.approx(2.2800, abs=5e-5)
        assert route.tower_count == 13
        # And the bypasses still work as alternates.
        assert apa_percent(network, route) == round(100 * 7 / 12)
