"""Tests for noise and tower-placement primitives."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geodesy import GeoPoint, geodesic_distance
from repro.geodesy.path import cross_track_distance, offset_point, polyline_length
from repro.synth.noise import SmoothNoise
from repro.synth.towers import (
    ChainLayout,
    bypass_point,
    route_lengths_km,
    spacing_fractions,
)

A = GeoPoint(41.7580, -88.1801)
B = GeoPoint(40.7773, -74.0700)


class TestSmoothNoise:
    def test_deterministic_per_seed(self):
        n1, n2 = SmoothNoise(42), SmoothNoise(42)
        assert [n1(t / 10) for t in range(11)] == [n2(t / 10) for t in range(11)]

    def test_seeds_differ(self):
        n1, n2 = SmoothNoise(1), SmoothNoise(2)
        assert any(abs(n1(t / 10) - n2(t / 10)) > 1e-6 for t in range(11))

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, seed, t):
        assert abs(SmoothNoise(seed)(t)) <= 1.0 + 1e-12

    def test_tapered_zero_at_ends(self):
        noise = SmoothNoise(7)
        assert noise.tapered(0.0) == 0.0
        assert noise.tapered(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_tapered_domain(self):
        with pytest.raises(ValueError):
            SmoothNoise(7).tapered(1.5)

    def test_requires_octave(self):
        with pytest.raises(ValueError):
            SmoothNoise(1, octaves=0)


class TestSpacing:
    def test_uniform(self):
        fractions = spacing_fractions(4)
        assert fractions == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_always_ends_at_one(self):
        for profile in ("uniform", "mixed", "jittered"):
            assert spacing_fractions(7, profile, seed=3)[-1] == 1.0

    def test_monotone(self):
        fractions = spacing_fractions(20, "mixed", seed=5)
        assert all(a < b for a, b in zip(fractions, fractions[1:]))

    def test_mixed_has_two_hop_lengths(self):
        fractions = [0.0] + spacing_fractions(20, "mixed", seed=5, length_ratio=2.0)
        hops = [b - a for a, b in zip(fractions, fractions[1:])]
        distinct = sorted(set(round(h, 9) for h in hops))
        assert len(distinct) == 2
        assert distinct[1] / distinct[0] == pytest.approx(2.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            spacing_fractions(0)
        with pytest.raises(ValueError):
            spacing_fractions(5, "bogus")
        with pytest.raises(ValueError):
            spacing_fractions(5, "mixed", short_fraction=1.5)
        with pytest.raises(ValueError):
            spacing_fractions(5, "mixed", length_ratio=0.9)


class TestChainPoints:
    def test_endpoints_exact(self):
        chain = ChainLayout(A, B, 10, SmoothNoise(1)).points(3_000.0)
        assert chain[0] is A and chain[-1] is B
        assert len(chain) == 11

    def test_zero_amplitude_lies_on_geodesic(self):
        chain = ChainLayout(A, B, 10, SmoothNoise(1)).points(0.0)
        for point in chain[1:-1]:
            assert cross_track_distance(point, A, B) < 10.0

    def test_amplitude_monotone_in_length(self):
        layout = ChainLayout(A, B, 24, SmoothNoise(1))
        lengths = [
            polyline_length(layout.points(amp))
            for amp in (0.0, 5_000.0, 20_000.0, 60_000.0)
        ]
        assert all(x < y for x, y in zip(lengths, lengths[1:]))

    def test_route_lengths_helper(self):
        chain = ChainLayout(A, B, 5, SmoothNoise(1)).points(0.0)
        lengths = route_lengths_km(chain)
        assert len(lengths) == 5
        assert sum(lengths) == pytest.approx(
            geodesic_distance(A, B) / 1000.0, rel=1e-6
        )


#: Tokyo TY3 and Singapore SG1: a ~5,300 km long-haul chain.
TY3 = GeoPoint(35.6242, 139.7410)
SG1 = GeoPoint(1.2931, 103.7865)


def _oracle_points(start, end, n_links, amplitude, noise, **spacing):
    """Tower sites placed one by one with ``offset_point``: the per-step
    composition the layout replaces, kept here as its oracle."""
    fractions = [0.0] + spacing_fractions(n_links, **spacing)
    points = [start]
    for fraction in fractions[1:-1]:
        lateral = amplitude * noise.tapered(fraction)
        points.append(offset_point(start, end, fraction, lateral))
    points.append(end)
    return points


class TestChainLayout:
    """The layout is bit-identical to the offset_point + polyline_length
    composition, for every spacing profile and amplitude."""

    #: (start, end, n_links, noise seed, spacing_fractions keywords).
    CASES = [
        (A, B, 24, 1, dict(profile="uniform")),
        (A, B, 30, 5, dict(profile="mixed", seed=7)),
        (A, B, 17, 9, dict(profile="jittered", seed=3)),
        (A, B, 20, 11, dict(profile="mixed", seed=2, short_fraction=0.3, length_ratio=3.5)),
        (TY3, SG1, 60, 4, dict(profile="uniform")),
        (A, B, 1, 1, dict(profile="uniform")),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("amplitude", [0.0, 750.0, 9_125.0, 83_562.5, -4_000.0])
    def test_matches_offset_point_oracle_exactly(self, case, amplitude):
        start, end, n_links, noise_seed, spacing = self.CASES[case]
        layout_kwargs = dict(spacing)
        layout_kwargs["spacing_seed"] = layout_kwargs.pop("seed", 0)
        layout = ChainLayout(start, end, n_links, SmoothNoise(noise_seed), **layout_kwargs)
        oracle = _oracle_points(
            start, end, n_links, amplitude, SmoothNoise(noise_seed), **spacing
        )
        points = layout.points(amplitude)
        assert [(p.latitude, p.longitude) for p in points] == [
            (p.latitude, p.longitude) for p in oracle
        ]
        assert points[0] is start and points[-1] is end
        assert layout.length(amplitude) == polyline_length(oracle)

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("amplitude", [0.0, 9_125.0, 83_562.5])
    def test_bounded_length_brackets_exact_length(self, case, amplitude):
        start, end, n_links, noise_seed, spacing = self.CASES[case]
        layout_kwargs = dict(spacing)
        layout_kwargs["spacing_seed"] = layout_kwargs.pop("seed", 0)
        layout = ChainLayout(start, end, n_links, SmoothNoise(noise_seed), **layout_kwargs)
        sites = layout.sites(amplitude)
        cheap, error = layout.bounded_length(sites)
        exact = layout.exact_length(sites)
        assert exact == layout.length(amplitude)
        assert abs(cheap - exact) <= error / 4

    def test_bounded_length_declines_a_hop_past_a_quarter_great_circle(self):
        # A one-hop chain from TY3 to New York: only Vincenty measures it.
        layout = ChainLayout(TY3, B, 1, SmoothNoise(1))
        assert layout.bounded_length(layout.sites(0.0)) is None
        assert layout.length(0.0) > 10_000_000.0

    def test_cases_cover_towers_with_negative_noise(self):
        # The first case displaces towers to both sides of travel, so the
        # oracle test exercises both perpendicular setups.
        tapers = [SmoothNoise(1).tapered(f) for f in spacing_fractions(24)[:-1]]
        assert min(tapers) < 0.0 < max(tapers)

    def test_long_haul_straight_chain_is_the_geodesic(self):
        layout = ChainLayout(TY3, SG1, 60, SmoothNoise(4))
        straight = layout.length(0.0)
        assert straight == pytest.approx(geodesic_distance(TY3, SG1), rel=1e-9)
        assert layout.length(50_000.0) > straight


class TestBypassPoint:
    def test_detour_strictly_longer(self):
        mid = ChainLayout(A, B, 2, SmoothNoise(1)).points(0.0)[1]
        bypass = bypass_point(A, mid, 4_000.0)
        direct = geodesic_distance(A, mid)
        detour = geodesic_distance(A, bypass) + geodesic_distance(bypass, mid)
        assert detour > direct

    def test_rejects_zero_offset(self):
        with pytest.raises(ValueError):
            bypass_point(A, B, 0.0)
