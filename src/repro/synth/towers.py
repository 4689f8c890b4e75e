"""Tower-site synthesis along corridor geodesics.

A synthetic route is a chain of tower sites between two anchor points:
towers are placed at chosen fractions along the geodesic and displaced
laterally by a smooth noise function scaled by a calibration amplitude.
Larger amplitudes make longer (slower) routes; the generator
(:mod:`repro.synth.generator`) bisects on the amplitude until the chain's
geodesic length, under the paper's latency model, hits a target latency.
:class:`ChainLayout` solves everything that does not depend on the
amplitude once per chain, so each bisection step only places the towers
laterally and measures the hops, cheaply when a bounded length suffices.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.geodesy import GeoPoint
from repro.geodesy.earth import (
    LAMBERT_HOP_ERROR_M,
    LAMBERT_RELATIVE_ERROR,
    destination_setup,
    destination_solve,
    geodesic_destination,
    inverse_trig,
    lambert_distance_trig,
    reduced_latitude_trig,
)
from repro.geodesy.path import offset_point
from repro.synth.noise import SmoothNoise


def spacing_fractions(
    n_links: int,
    profile: str = "uniform",
    seed: int = 0,
    short_fraction: float = 0.6,
    length_ratio: float = 2.0,
) -> list[float]:
    """Cumulative fractions (0 … 1) splitting a route into ``n_links`` hops.

    ``profile``:

    * ``"uniform"`` — equal hops (speed-optimised networks buy the
      best-placed towers they can; spacing comes out roughly even);
    * ``"mixed"`` — a shuffled mix of short hops and long hops
      (``short_fraction`` of hops are short; long hops are
      ``length_ratio``× longer).  Reliability-optimised networks look like
      this: mostly short hops, with a few long ones where terrain allows
      (Webline Holdings' 36 km median vs 45 km mean in Fig 4a);
    * ``"jittered"`` — uniform with ±15% seeded jitter, for generic
      networks.
    """
    if n_links < 1:
        raise ValueError("need at least one link")
    if profile == "uniform":
        weights = [1.0] * n_links
    elif profile == "mixed":
        if not 0.0 < short_fraction < 1.0:
            raise ValueError("short_fraction must be in (0, 1)")
        if length_ratio <= 1.0:
            raise ValueError("length_ratio must exceed 1")
        n_short = max(1, round(n_links * short_fraction))
        n_long = n_links - n_short
        weights = [1.0] * n_short + [length_ratio] * n_long
        random.Random(seed).shuffle(weights)
    elif profile == "jittered":
        rng = random.Random(seed)
        weights = [1.0 + rng.uniform(-0.15, 0.15) for _ in range(n_links)]
    else:
        raise ValueError(f"unknown spacing profile: {profile!r}")
    total = sum(weights)
    fractions = []
    acc = 0.0
    for weight in weights:
        acc += weight
        fractions.append(acc / total)
    fractions[-1] = 1.0  # exact endpoint despite float accumulation
    return fractions


#: One placed tower: ``(latitude, longitude, sin U, cos U)``, with U its
#: reduced latitude.
Site = tuple[float, float, float, float]


def _site(lat: float, lon: float) -> Site:
    return (lat, lon, *reduced_latitude_trig(lat))


class ChainLayout:
    """The amplitude-invariant geometry of one tower chain.

    A chain of ``n_links`` hops runs from ``start`` to ``end``.  Tower
    ``i`` sits at spacing fraction ``f_i`` along the start→end geodesic,
    displaced ``amplitude_m × noise.tapered(f_i)`` metres perpendicular to
    it (positive = right of travel).  Everything here except the
    amplitude is fixed per chain, so the constructor solves it once: the
    start→end inverse, each tower's on-geodesic base point, its tapered
    noise factor and the direct-problem setup of both perpendiculars
    (:func:`repro.geodesy.earth.destination_setup`).  :meth:`sites` then
    places the towers at one amplitude with one lateral direct solve per
    tower, and the same sites feed both chain lengths: the exact Vincenty
    sum (:meth:`exact_length`) and the cheap Lambert sum with its error
    bound (:meth:`bounded_length`).

    The geometry is bit-identical to placing each tower with
    :func:`repro.geodesy.path.offset_point` and measuring the chain with
    :func:`repro.geodesy.path.polyline_length` (pinned in
    ``tests/test_synth_noise_towers.py``), but it never consults a
    :class:`~repro.geodesy.memo.GeodesicMemo`.
    """

    def __init__(
        self,
        start: GeoPoint,
        end: GeoPoint,
        n_links: int,
        noise: SmoothNoise,
        profile: str = "uniform",
        spacing_seed: int = 0,
        short_fraction: float = 0.6,
        length_ratio: float = 2.0,
    ) -> None:
        fractions = spacing_fractions(
            n_links,
            profile,
            spacing_seed,
            short_fraction=short_fraction,
            length_ratio=length_ratio,
        )
        self.start = start
        self.end = end
        self._start_site = _site(start.latitude, start.longitude)
        self._end_site = _site(end.latitude, end.longitude)
        distance, azimuth, _ = inverse_trig(
            start.latitude, start.longitude, end.latitude, end.longitude,
            *self._start_site[2:], *self._end_site[2:],
        )
        right = (azimuth + 90.0) % 360.0
        left = (azimuth - 90.0) % 360.0
        self._towers = []
        for fraction in fractions[:-1]:
            base = geodesic_destination(start, azimuth, distance * fraction)
            lat, lon = base.latitude, base.longitude
            self._towers.append((
                noise.tapered(fraction),
                _site(lat, lon),
                destination_setup(lat, lon, right),
                destination_setup(lat, lon, left),
            ))

    def sites(self, amplitude_m: float) -> list[Site]:
        """The ``n_links + 1`` tower sites at ``amplitude_m``, anchors
        included, with their reduced-latitude trig: the towers placed once,
        for :meth:`exact_length` and :meth:`bounded_length` to measure."""
        sites = [self._start_site]
        for taper, base_site, right, left in self._towers:
            lateral = amplitude_m * taper
            # lint: disable=float-eq (exact zero lateral offset leaves the
            # tower on the geodesic, as offset_point does)
            if lateral == 0.0:
                sites.append(base_site)
            else:
                sites.append(
                    _site(*destination_solve(right if lateral > 0.0 else left, abs(lateral)))
                )
        sites.append(self._end_site)
        return sites

    def points(self, amplitude_m: float) -> list[GeoPoint]:
        """The ``n_links + 1`` tower sites: the two anchors themselves and
        the intermediate towers at lateral amplitude ``amplitude_m``."""
        towers = self.sites(amplitude_m)[1:-1]
        return [self.start, *(GeoPoint(lat, lon) for lat, lon, _, _ in towers), self.end]

    @staticmethod
    def exact_length(sites: list[Site]) -> float:
        """Geodesic (Vincenty) length of the chain through ``sites``,
        metres: what :func:`~repro.geodesy.path.polyline_length` returns
        for the same points."""
        return sum(
            inverse_trig(lat1, lon1, lat2, lon2, sin_u1, cos_u1, sin_u2, cos_u2)[0]
            for (lat1, lon1, sin_u1, cos_u1), (lat2, lon2, sin_u2, cos_u2)
            in zip(sites, sites[1:])
        )

    @staticmethod
    def bounded_length(sites: list[Site]) -> tuple[float, float] | None:
        """The Lambert length of the chain through ``sites`` and a bound on
        its distance from :meth:`exact_length`, metres; ``None`` when a hop
        is too long for the Lambert kernel."""
        total = 0.0
        for (lat1, lon1, sin_u1, cos_u1), (lat2, lon2, sin_u2, cos_u2) in zip(
            sites, sites[1:]
        ):
            hop = lambert_distance_trig(
                lat1, lon1, lat2, lon2, sin_u1, cos_u1, sin_u2, cos_u2
            )
            if hop is None:
                return None
            total += hop
        error = LAMBERT_RELATIVE_ERROR * total + (len(sites) - 1) * LAMBERT_HOP_ERROR_M
        return total, error

    def length(self, amplitude_m: float) -> float:
        """Geodesic length of the chain at ``amplitude_m``, metres: what
        ``polyline_length(self.points(amplitude_m))`` returns, without
        building the points."""
        return self.exact_length(self.sites(amplitude_m))


def bypass_point(
    tower_a: GeoPoint,
    tower_b: GeoPoint,
    lateral_m: float,
    along_fraction: float = 0.5,
) -> GeoPoint:
    """A bypass tower beside the a→b segment.

    Placed at ``along_fraction`` of the way from a to b, offset
    ``lateral_m`` perpendicular to it — guaranteeing the detour through
    the bypass is strictly longer than the direct hop, so it never steals
    the shortest path but provides an alternate when a link fails.
    """
    if lateral_m == 0.0:
        raise ValueError("a bypass tower must be off the direct segment")
    return offset_point(tower_a, tower_b, along_fraction, lateral_m)


def perturb(point: GeoPoint, seed: int, max_offset_m: float = 150.0) -> GeoPoint:
    """A small seeded displacement, used to make decoy sites look organic."""
    rng = random.Random(seed)
    bearing = rng.uniform(0.0, 360.0)
    distance = rng.uniform(0.0, max_offset_m)
    return geodesic_destination(point, bearing, distance)


def route_lengths_km(points: Sequence[GeoPoint]) -> list[float]:
    """Per-hop lengths of a chain, km (diagnostics for tests)."""
    from repro.geodesy import geodesic_distance

    return [
        geodesic_distance(a, b) / 1000.0 for a, b in zip(points, points[1:])
    ]
